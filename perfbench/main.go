// Command perfbench is the repository's benchmark: five workloads over
// the emulator, the sweep daemon and the paper's study, each run in its
// own process. It prints every metric by name with its unit and checks
// every output for correctness; the last line of standard output is
// the JSON result.
//
//	perfbench --workload manype-frfs --seed 1 --seconds 15 --trace 0
//
// The program reads its workload and metric names from BENCHMARK.json
// in the working directory. With --trace 0 the metrics are the
// end_to_end ones; with --trace 1 they are the per_layer ones, timed by
// wrapping the public boundaries of the layers from outside. See
// README.md for why each workload was chosen and what each metric
// moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs have committed digests.
const defaultSeed = 1

// outDir, under the working directory (the repository root), holds
// span logs and daemon state; run.py builds the program there too.
var outDir = filepath.Join(".bench_build", "perfbench")

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// spec is what the program reads from BENCHMARK.json: the workload
// names, the end-to-end metrics (measured with tracing off; every
// workload reports each of them) and the per-layer metrics of the
// traced run (every workload reports each; a layer a workload never
// enters reads 0).
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"manype-frfs": runManyPE,
	"odroid-eft":  runOdroid,
	"daemon-cold": runDaemonCold,
	"daemon-warm": runDaemonWarm,
	"study":       runStudy,
}

// bench is one benchmark process: its settings, what it measured, and
// its correctness tally.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool

	spans  *spanLog // nil unless tracing
	values map[string]float64

	attempted int
	failed    int
}

// fail counts one failed operation and says why on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", b.workload, fmt.Sprintf(format, args...))
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// loop runs op at least minOps times, then again while another op of
// the median duration so far (as op reports it) still fits in the
// budget.
func (b *bench) loop(minOps int, op func(i int) (time.Duration, error)) error {
	start := time.Now()
	var durs []float64
	for i := 0; ; i++ {
		if i >= minOps && time.Since(start)+time.Duration(median(durs)) > b.budget {
			return nil
		}
		d, err := op(i)
		if err != nil {
			return err
		}
		durs = append(durs, float64(d))
	}
}

// setupRepeats is how many times each workload repeats its set-up;
// setup_s is the median.
const setupRepeats = 15

// timeSetup runs setup setupRepeats times, records the median as
// setup_s, and returns the last repeat's state. Before each repeat,
// untimed, discard releases the previous repeat's state (when
// non-nil) and the heap is collected, so every repeat starts alike.
func timeSetup[T any](b *bench, setup func() (T, error), discard func(T) error) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			if err := discard(last); err != nil {
				return last, err
			}
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	b.set("setup_s", median(secs))
	return last, nil
}

// checkDigest checks an operation's output digest. For the default
// seed (or any seed, when seedFree: the outputs do not depend on it) it
// must equal the committed digest of the key's op; the daemon commits
// digests for its first requests only, and later ones are checked
// against their warm replay instead. Otherwise, when ref is non-nil,
// the op must match the first op checked against the same ref. It
// reports whether the op is correct.
func (b *bench) checkDigest(key string, index int, got string, ref *string, seedFree bool) bool {
	if b.seed == defaultSeed || seedFree {
		want, ok := committedDigest(key, index)
		if !ok {
			if len(committed[key]) > 0 {
				return true
			}
			b.fail("op %d: no committed digest for %s (got %s)", index, key, got)
			return false
		}
		if got != want {
			b.fail("op %d: digest %s, committed %s", index, got, want)
			return false
		}
		return true
	}
	if ref == nil {
		return true
	}
	if *ref == "" {
		*ref = got
		return true
	}
	if got != *ref {
		b.fail("op %d: digest %s differs from the first run of the same input, %s", index, got, *ref)
		return false
	}
	return true
}

type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the commit of the checkout the benchmark runs in, or
// "unknown" when the checkout is not a git work tree.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: manype-frfs, odroid-eft, daemon-cold, daemon-warm, study")
		seed    = fs.Int64("seed", defaultSeed, "input seed")
		seconds = fs.Int("seconds", 15, "measurement budget in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		values:   map[string]float64{},
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	defs := sp.EndToEnd
	if b.trace {
		defs = sp.PerLayer
		b.spans = newSpanLog()
		// Every per-layer metric starts at 0, so a workload sets only
		// the layers it enters.
		for _, d := range defs {
			b.values[d.Name] = 0
		}
	}
	prov := provenance{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: b.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: gitCommit(),
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pj)

	if err := runner(b); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if b.attempted < 1 {
		return fmt.Errorf("%s: no operation ran", *name)
	}
	if b.trace {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := b.spans.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		b.set("failed_frac", float64(b.failed)/float64(b.attempted))
	} else {
		b.set("peak_rss_mb", peakRSSMB())
	}

	res := resultOut{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", *name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", *name, d.Name, v)
		}
		fmt.Printf("metric %-26s %16.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	// A metric the program measures but BENCHMARK.json does not name
	// (renamed or misspelt there) would otherwise be dropped silently.
	named := map[string]bool{}
	for _, d := range append(sp.EndToEnd, sp.PerLayer...) {
		named[d.Name] = true
	}
	for n := range b.values {
		if !named[n] {
			return fmt.Errorf("%s: measured %s, which BENCHMARK.json does not name", *name, n)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
