// Command benchreport runs a `go test -bench -benchmem` command and
// converts its output into a machine-readable JSON record, so the
// repository's performance trajectory is pinned in version control
// instead of commit messages.
//
//	benchreport -trials 3 -raw BENCH_5.out go test -run NONE -bench . -benchmem . > BENCH_5.json
//
// The trailing arguments are the benchmark command. benchreport runs
// it once per trial, each in its own process, which is what lets a
// BENCH file record each trial's OS resource usage (user/system CPU
// seconds and peak RSS via the child's rusage) and its total
// stop-the-world GC pause (the command runs under GODEBUG=gctrace=1;
// the sweep- and mark-termination clock phases of every gc line are
// summed, covering the whole process tree of the trial). The
// per-trial records land in trial_resources; -raw also keeps the
// combined raw benchmark output.
//
// For benchmarks that report a tasks/op metric (the emulator
// throughput benches), the derived tasks_per_sec field is the headline
// number: emulated tasks processed per second of host time.
//
// Interpretability fields: the -N GOMAXPROCS suffix go test appends to
// benchmark names is recorded as "gomaxprocs", and "single_cpu_host"
// flags runs where it is 1 — on such hosts the SweepWorkers curves
// collapse into noise, so a flat speedup trajectory there says nothing
// about the sweep engine. Each BenchmarkSweepWorkers/workers=N entry
// additionally carries an explicit speedup_vs_1 metric (ns/op of
// workers=1 over ns/op of workers=N).
//
// Multi-trial runs: the combined stdout of all trials carries one
// result line per benchmark per trial (as does `go test -count N`).
// Repeated lines of one name are aggregated into a single record
// carrying the mean of every column plus trials, ns_per_op_stdev and
// tasks_per_sec_stdev, so a BENCH_N.json records the spread of the
// measurement, not just one draw. Single-trial output omits the extra
// fields.
//
// Comparison mode:
//
//	benchreport -prev BENCH_3.json -trials 3 go test -run NONE -bench . -benchmem . > BENCH_4.json
//
// prints per-benchmark deltas against the previous record to stderr
// and exits non-zero when any benchmark's tasks_per_sec regressed by
// more than -max-regress (default 10%) — the `make bench-check` gate.
// When both records carry trial spreads and their mean±stdev intervals
// overlap, an over-threshold drop is reported as a warning instead of
// failing the gate: the measurement cannot distinguish the two runs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result (the mean over trials when
// the run repeated it via -count).
type Benchmark struct {
	Name string  `json:"name"`
	Iter int64   `json:"iterations"`
	NsOp float64 `json:"ns_per_op"`
	// TasksOp is the emulated task count per benchmark iteration
	// (present only on benches reporting a tasks/op metric).
	TasksOp float64 `json:"tasks_per_op,omitempty"`
	// TasksPerSec = TasksOp / (NsOp * 1e-9).
	TasksPerSec float64 `json:"tasks_per_sec,omitempty"`
	BytesOp     float64 `json:"bytes_per_op,omitempty"`
	AllocsOp    float64 `json:"allocs_per_op,omitempty"`
	// Trials is how many result lines were aggregated into this record
	// (omitted for the common single-trial run). The value fields above
	// are then means over the trials; the stdevs below are the sample
	// standard deviations of ns/op and of the per-trial derived
	// tasks/sec rate.
	Trials           int     `json:"trials,omitempty"`
	NsOpStdev        float64 `json:"ns_per_op_stdev,omitempty"`
	TasksPerSecStdev float64 `json:"tasks_per_sec_stdev,omitempty"`
	// Metrics carries every other custom ReportMetric column verbatim,
	// plus the derived speedup_vs_1 on SweepWorkers sub-benches.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_N.json document.
type Report struct {
	CPU       string `json:"cpu,omitempty"`
	GoVersion string `json:"go,omitempty"`
	// GoMaxProcs is the -N suffix of the benchmark names: the
	// GOMAXPROCS the run executed under.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// SingleCPUHost marks records whose parallel-scaling numbers
	// (SweepWorkers, speedup_vs_1) are meaningless: with one CPU the
	// worker curves are indistinguishable noise.
	SingleCPUHost bool        `json:"single_cpu_host"`
	Benchmarks    []Benchmark `json:"benchmarks"`
	// TrialResources is one record per trial process: OS-level cost
	// (rusage) and GC stop-the-world totals that per-op columns cannot
	// express.
	TrialResources []TrialResource `json:"trial_resources,omitempty"`
}

// TrialResource is the resource footprint of one trial.
type TrialResource struct {
	WallSec float64 `json:"wall_sec"`
	UserSec float64 `json:"user_sec,omitempty"`
	SysSec  float64 `json:"sys_sec,omitempty"`
	// MaxRSSKB is the trial process's peak resident set size in KiB.
	MaxRSSKB int64 `json:"max_rss_kb,omitempty"`
	// GCPauseMs sums the stop-the-world clock phases of every gctrace
	// line the trial emitted; GCCount is how many collections ran.
	GCPauseMs float64 `json:"gc_pause_ms,omitempty"`
	GCCount   int     `json:"gc_count,omitempty"`
}

func main() {
	prev := flag.String("prev", "", "previous BENCH_N.json to diff against; >max-regress tasks/sec regressions exit non-zero")
	maxRegress := flag.Float64("max-regress", 0.10, "tolerated fractional tasks/sec regression in -prev mode")
	trials := flag.Int("trials", 1, "how many times to run the command (one process, one trial_resources record each)")
	rawPath := flag.String("raw", "", "also write the combined raw benchmark output to this file")
	flag.Parse()

	out, resources, err := runTrials(flag.Args(), *trials, *rawPath)
	var rep *Report
	if err == nil {
		rep, err = parse(bytes.NewReader(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines in the command's output")
		os.Exit(1)
	}
	rep.TrialResources = resources
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if *prev == "" {
		return
	}
	data, err := os.ReadFile(*prev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	var prevRep Report
	if err := json.Unmarshal(data, &prevRep); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: decoding %s: %v\n", *prev, err)
		os.Exit(1)
	}
	regressed := compare(os.Stderr, &prevRep, rep, *maxRegress)
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: tasks/sec regressed >%.0f%% on: %s\n",
			*maxRegress*100, strings.Join(regressed, ", "))
		os.Exit(2)
	}
}

// compare prints per-benchmark deltas of cur against prev and returns
// the names whose tasks_per_sec dropped by more than maxRegress. Only
// the throughput headline gates: ns/op deltas of benches without a
// tasks/op metric are reported for context but never fail the run. A
// headline benchmark that exists in the previous record but not in the
// current run also gates — otherwise renaming (or narrowing the -bench
// regex past) a throughput bench would silently disarm the check.
func compare(w io.Writer, prev, cur *Report, maxRegress float64) []string {
	prevBy := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		prevBy[b.Name] = b
	}
	curBy := make(map[string]bool, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = true
	}
	var regressed []string
	fmt.Fprintf(w, "benchreport: comparing against previous record\n")
	for _, p := range prev.Benchmarks {
		if p.TasksPerSec > 0 && !curBy[p.Name] {
			fmt.Fprintf(w, "  %-50s MISSING from current run (was %12.0f tasks/sec)\n", p.Name, p.TasksPerSec)
			regressed = append(regressed, p.Name+" (missing)")
		}
	}
	for _, b := range cur.Benchmarks {
		p, ok := prevBy[b.Name]
		if !ok {
			fmt.Fprintf(w, "  %-50s (new)\n", b.Name)
			continue
		}
		switch {
		case b.TasksPerSec > 0 && p.TasksPerSec > 0:
			delta := (b.TasksPerSec - p.TasksPerSec) / p.TasksPerSec
			verdict := ""
			if delta < -maxRegress {
				// An over-threshold drop whose mean±stdev intervals
				// overlap is measurement noise, not a regression: warn
				// without failing the gate. Single-trial records carry
				// zero stdev, so their intervals are points and the
				// strict gate is unchanged.
				if rateIntervalsOverlap(p, b) {
					verdict = "  WARNING (within trial noise, not gating)"
				} else {
					verdict = "  REGRESSION"
					regressed = append(regressed, b.Name)
				}
			}
			fmt.Fprintf(w, "  %-50s %12.0f -> %12.0f tasks/sec  %+6.1f%%%s\n",
				b.Name, p.TasksPerSec, b.TasksPerSec, delta*100, verdict)
		case b.NsOp > 0 && p.NsOp > 0:
			delta := (b.NsOp - p.NsOp) / p.NsOp
			fmt.Fprintf(w, "  %-50s %12.0f -> %12.0f ns/op      %+6.1f%%\n",
				b.Name, p.NsOp, b.NsOp, delta*100)
		}
	}
	return regressed
}

// rateIntervalsOverlap reports whether the two benchmarks' tasks/sec
// mean±stdev intervals intersect. Records without trial spreads have
// zero-width intervals, so two single-trial measurements only
// "overlap" when they are exactly equal.
func rateIntervalsOverlap(a, b Benchmark) bool {
	aLo, aHi := a.TasksPerSec-a.TasksPerSecStdev, a.TasksPerSec+a.TasksPerSecStdev
	bLo, bHi := b.TasksPerSec-b.TasksPerSecStdev, b.TasksPerSec+b.TasksPerSecStdev
	return aHi >= bLo && bHi >= aLo
}

// parse consumes `go test -bench` output. Benchmark lines look like
//
//	BenchmarkName-8   20   6705221 ns/op   8172 tasks/op   1063324 B/op   48 allocs/op
//
// with tab- or space-separated "<value> <unit>" pairs after the
// iteration count; header lines (goos/goarch/pkg/cpu) are sniffed for
// provenance.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "go version") || strings.HasPrefix(line, "toolchain:"):
			rep.GoVersion = line
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iter, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcSuffix(fields[0])
		if procs > 0 && rep.GoMaxProcs == 0 {
			rep.GoMaxProcs = procs
			rep.SingleCPUHost = procs == 1
		}
		b := Benchmark{Name: name, Iter: iter}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsOp = val
			case "tasks/op":
				b.TasksOp = val
			case "B/op":
				b.BytesOp = val
			case "allocs/op":
				b.AllocsOp = val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		if b.TasksOp > 0 && b.NsOp > 0 {
			b.TasksPerSec = b.TasksOp / (b.NsOp * 1e-9)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// go test appends the -N name suffix only when GOMAXPROCS > 1: a
	// record whose benchmark names carry no suffix ran on one CPU.
	if len(rep.Benchmarks) > 0 && rep.GoMaxProcs == 0 {
		rep.GoMaxProcs = 1
		rep.SingleCPUHost = true
	}
	aggregateTrials(rep)
	deriveSweepSpeedups(rep)
	return rep, nil
}

// aggregateTrials folds repeated result lines of one benchmark name
// (`go test -count N`) into a single mean record with trial counts and
// spreads. Iterations sum (total measured work); every per-op column
// is the mean over trials; TasksPerSec becomes the mean of the
// per-trial rates so its stdev describes the same population. A run
// with no repeated names passes through untouched.
func aggregateTrials(rep *Report) {
	groups := map[string][]Benchmark{}
	var order []string
	multi := false
	for _, b := range rep.Benchmarks {
		if _, seen := groups[b.Name]; !seen {
			order = append(order, b.Name)
		} else {
			multi = true
		}
		groups[b.Name] = append(groups[b.Name], b)
	}
	if !multi {
		return
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		g := groups[name]
		agg := Benchmark{Name: name, Trials: len(g)}
		var nsTrials, rateTrials []float64
		for _, b := range g {
			agg.Iter += b.Iter
			agg.NsOp += b.NsOp / float64(len(g))
			agg.TasksOp += b.TasksOp / float64(len(g))
			agg.BytesOp += b.BytesOp / float64(len(g))
			agg.AllocsOp += b.AllocsOp / float64(len(g))
			for k, v := range b.Metrics {
				if agg.Metrics == nil {
					agg.Metrics = map[string]float64{}
				}
				agg.Metrics[k] += v / float64(len(g))
			}
			nsTrials = append(nsTrials, b.NsOp)
			if b.TasksOp > 0 && b.NsOp > 0 {
				rateTrials = append(rateTrials, b.TasksOp/(b.NsOp*1e-9))
			}
		}
		agg.NsOpStdev = stdev(nsTrials)
		if len(rateTrials) > 0 {
			agg.TasksPerSec = mean(rateTrials)
			agg.TasksPerSecStdev = stdev(rateTrials)
		}
		if agg.Trials == 1 {
			agg.Trials = 0 // single-trial records stay in the legacy shape
		}
		out = append(out, agg)
	}
	rep.Benchmarks = out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdev is the sample standard deviation (n-1); zero below two points.
func stdev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// deriveSweepSpeedups stamps speedup_vs_1 onto every SweepWorkers
// sub-benchmark: wall-clock of the workers=1 run over this run. On a
// single-CPU host the values hover around 1.0 by construction — the
// single_cpu_host flag tells readers to discount them.
func deriveSweepSpeedups(rep *Report) {
	var base float64
	for _, b := range rep.Benchmarks {
		if strings.HasSuffix(b.Name, "SweepWorkers/workers=1") {
			base = b.NsOp
			break
		}
	}
	if base <= 0 {
		return
	}
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		if !strings.Contains(b.Name, "SweepWorkers/workers=") || b.NsOp <= 0 {
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics["speedup_vs_1"] = base / b.NsOp
	}
}

// runTrials executes the benchmark command n times under
// GODEBUG=gctrace=1, returning the concatenated stdout (parsed like
// -count output) and one resource record per trial. gctrace lines are
// consumed for the GC pause totals; every other stderr line is
// forwarded so test failures stay visible.
func runTrials(args []string, n int, rawPath string) ([]byte, []TrialResource, error) {
	if len(args) == 0 {
		return nil, nil, fmt.Errorf("no benchmark command: benchreport [-trials N] go test -bench ...")
	}
	if n < 1 {
		n = 1
	}
	var raw io.Writer = io.Discard
	if rawPath != "" {
		f, err := os.Create(rawPath)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		raw = f
	}
	var combined bytes.Buffer
	var resources []TrialResource
	for i := 0; i < n; i++ {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		start := time.Now()
		runErr := cmd.Run()
		wall := time.Since(start)
		// `go test` merges the test binary's stderr — where gctrace
		// writes — into its own stdout, interleaving gc lines even
		// mid-benchmark-line. Both streams are sieved: gc traces feed
		// the pause totals and are excised (with their newline, so a
		// split benchmark line rejoins); the rest passes through to
		// the benchmark parser / the operator.
		outBytes, outMs, outN := stripGCTrace(stdout.Bytes())
		combined.Write(outBytes)
		raw.Write(outBytes)
		errBytes, errMs, errN := stripGCTrace(stderr.Bytes())
		os.Stderr.Write(errBytes)
		pauseMs, gcCount := outMs+errMs, outN+errN
		if runErr != nil {
			return nil, nil, fmt.Errorf("trial %d: %v", i+1, runErr)
		}
		tr := TrialResource{WallSec: wall.Seconds(), GCPauseMs: pauseMs, GCCount: gcCount}
		if user, sys, rss, ok := rusageOf(cmd.ProcessState); ok {
			tr.UserSec, tr.SysSec, tr.MaxRSSKB = user, sys, rss
		}
		resources = append(resources, tr)
	}
	return combined.Bytes(), resources, nil
}

// gcTraceRE matches one GODEBUG=gctrace=1 record through its trailing
// newline. The runtime emits each record atomically but the host
// stream may already hold a partial benchmark line, so records are
// located anywhere, not just at line starts.
var gcTraceRE = regexp.MustCompile(`gc \d+ @[0-9.]+s \d+%: (\S+) ms clock[^\n]*\n?`)

// stripGCTrace excises every gctrace record from b, summing the
// stop-the-world sweep- and mark-termination clock phases
// ("0.018+1.2+0.003 ms clock": first and third are STW) into pauseMs.
func stripGCTrace(b []byte) (out []byte, pauseMs float64, count int) {
	matches := gcTraceRE.FindAllSubmatchIndex(b, -1)
	if len(matches) == 0 {
		return b, 0, 0
	}
	out = make([]byte, 0, len(b))
	prev := 0
	for _, m := range matches {
		out = append(out, b[prev:m[0]]...)
		prev = m[1]
		phases := strings.Split(string(b[m[2]:m[3]]), "+")
		if len(phases) != 3 {
			continue
		}
		stw1, err1 := strconv.ParseFloat(phases[0], 64)
		stw2, err2 := strconv.ParseFloat(phases[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		pauseMs += stw1 + stw2
		count++
	}
	out = append(out, b[prev:]...)
	return out, pauseMs, count
}

// splitProcSuffix drops the -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkX-8" -> "BenchmarkX", 8), keeping
// sub-bench paths intact; procs is 0 when no suffix is present.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 0
	}
	return name[:i], procs
}
