package main

// The study workload: the paper's six artefacts regenerated through
// their public functions, with sweep workers = nproc. It is the only
// workload that runs real DSP kernels (Table I and Fig 9's validation
// iterations) and the conversion toolchain (Case Study 4).

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/minic"
	"repro/internal/outliner"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// artefact regenerates one table or figure, writing its rendering and
// CSV export to w.
type artefact struct {
	name string
	run  func(w io.Writer, opt sweep.Options) error
}

var artefacts = []artefact{
	{"table1", func(w io.Writer, opt sweep.Options) error {
		rows, err := experiments.TableI(opt)
		if err != nil {
			return err
		}
		io.WriteString(w, experiments.RenderTableI(rows))
		return experiments.TableICSV(w, rows)
	}},
	{"table2", func(w io.Writer, opt sweep.Options) error {
		res, err := experiments.TableIIGen()
		if err != nil {
			return err
		}
		io.WriteString(w, experiments.RenderTableII(res))
		return experiments.TableIICSV(w, res)
	}},
	{"fig9", func(w io.Writer, opt sweep.Options) error {
		pts, err := experiments.Fig9(50, opt)
		if err != nil {
			return err
		}
		io.WriteString(w, experiments.RenderFig9(pts))
		return experiments.Fig9CSV(w, pts)
	}},
	{"fig10", func(w io.Writer, opt sweep.Options) error {
		pts, err := experiments.Fig10(0, opt)
		if err != nil {
			return err
		}
		io.WriteString(w, experiments.RenderFig10(pts))
		return experiments.Fig10CSV(w, pts)
	}},
	{"fig11", func(w io.Writer, opt sweep.Options) error {
		pts, err := experiments.Fig11(nil, opt)
		if err != nil {
			return err
		}
		io.WriteString(w, experiments.RenderFig11(pts))
		return experiments.Fig11CSV(w, pts)
	}},
	{"cs4", func(w io.Writer, opt sweep.Options) error {
		r, err := experiments.CS4(cs4N, 0)
		if err != nil {
			return err
		}
		io.WriteString(w, experiments.RenderCS4(r))
		return nil
	}},
}

// cs4N is Case Study 4's transform length, the paper's.
const cs4N = 1024

// studyPass is one regeneration of every artefact.
type studyPass struct {
	start  time.Time
	wall   time.Duration
	each   map[string]time.Duration
	digest string
	gc     gcDelta
	cpu    time.Duration
}

func (b *bench) studyPass(traced bool) (*studyPass, error) {
	p := &studyPass{each: map[string]time.Duration{}}
	opt := sweep.Options{Workers: runtime.NumCPU()}
	var out bytes.Buffer
	var m0 runtime.MemStats
	if traced {
		m0 = readMem()
	}
	cpu0 := cpuTime()
	p.start = time.Now()
	ends := make([]time.Time, len(artefacts))
	for i, a := range artefacts {
		start := time.Now()
		if err := a.run(&out, opt); err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		ends[i] = time.Now()
		p.each[a.name] = ends[i].Sub(start)
	}
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - cpu0
	if traced {
		p.gc = memDelta(m0, readMem())
		id := b.spans.add("study", 0, p.start, p.start.Add(p.wall))
		for i, a := range artefacts {
			b.spans.add("experiments."+a.name, id, ends[i].Add(-p.each[a.name]), ends[i])
		}
	}
	h := newDigest()
	h.Write(out.Bytes())
	p.digest = sum(h)
	return p, nil
}

// setupStudy does the study's set-up work, the part of a pass that
// precedes its emulations: it builds the application specs and every
// platform the artefacts run on (Table I and Fig 10's 3C+2F, Fig 9's
// seven ZCU102 configurations, Case Study 4's 3C+1F, Fig 11's twelve
// Odroid configurations), compiles each application against each
// platform it is emulated on into a fresh program cache, generates the
// Table II and Fig 11 traces, and compiles Case Study 4's MiniC
// source. It returns the time spent compiling programs.
func setupStudy() (time.Duration, error) {
	specs := apps.Specs()
	reg := apps.Registry()
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	var cfgs []*platform.Config
	for _, cf := range append([][2]int{{3, 2}}, experiments.Fig9Configs...) {
		cfg, err := platform.ZCU102(cf[0], cf[1])
		if err != nil {
			return 0, err
		}
		cfgs = append(cfgs, cfg)
	}
	for _, cf := range experiments.Fig11Configs {
		cfg, err := platform.OdroidXU3(cf[0], cf[1])
		if err != nil {
			return 0, err
		}
		cfgs = append(cfgs, cfg)
	}
	if _, err := platform.ZCU102(3, 1); err != nil {
		return 0, err
	}
	cache := core.NewProgramCache()
	start := time.Now()
	for _, cfg := range cfgs {
		for _, name := range names {
			if _, err := cache.Get(specs[name], cfg, reg); err != nil {
				return 0, err
			}
		}
	}
	compile := time.Since(start)
	for _, row := range workload.TableII {
		if _, err := workload.TableIITrace(specs, row); err != nil {
			return 0, err
		}
	}
	for _, rate := range experiments.Fig11DefaultRates {
		if _, err := workload.RateTrace(specs, rate, workload.TableIIFrame); err != nil {
			return 0, err
		}
	}
	if _, err := minic.Compile(outliner.MonolithicRangeDetection(cs4N, cs4N/8), "rd_monolithic"); err != nil {
		return 0, err
	}
	return compile, nil
}

// warmUpArtefacts are regenerated once, untimed, before the timed
// passes, so the first pass does not carry the process's one-time
// costs (heap growth, first kernel executions).
// They are the cheap ones: a pass takes most of a run's budget, so a
// run usually times a single pass.
var warmUpArtefacts = artefacts[:3]

func runStudy(b *bench) error {
	var compiles []float64
	if _, err := timeSetup(b, func() (time.Duration, error) {
		c, err := setupStudy()
		compiles = append(compiles, c.Seconds())
		return c, err
	}, nil); err != nil {
		return err
	}
	opt := sweep.Options{Workers: runtime.NumCPU()}
	for _, a := range warmUpArtefacts {
		if err := a.run(io.Discard, opt); err != nil {
			return fmt.Errorf("warm-up %s: %w", a.name, err)
		}
	}
	var plain, traced []*studyPass
	minOps := 1
	if b.trace {
		minOps = 2
	}
	err := b.loop(minOps, func(i int) (time.Duration, error) {
		tr := b.trace && i%2 == 1
		p, err := b.studyPass(tr)
		if err != nil {
			return 0, err
		}
		b.attempted++
		if tr {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		b.checkDigest(b.workload, 0, p.digest, nil, true)
		return p.wall, nil
	})
	if err != nil {
		return err
	}
	var walls []float64
	var total time.Duration
	for _, p := range plain {
		walls = append(walls, ms(p.wall))
		total += p.wall
	}
	b.set("throughput_per_s", float64(len(plain)*len(artefacts))/total.Seconds())
	b.set("latency_ms", median(walls))
	if !b.trace {
		return nil
	}
	p := traced[0]
	for _, a := range artefacts {
		b.set("experiments."+a.name+"_s", p.each[a.name].Seconds())
	}
	b.set("core.compile_s", median(compiles))
	b.set("gc.cycles", p.gc.cycles)
	b.set("gc.pause_s", p.gc.pauseS)
	b.set("gc.alloc_mb", p.gc.allocMB)
	b.set("gc.allocs", p.gc.allocs)
	b.set("sweep.cpu_util", cpuUtil(p.cpu, p.wall))
	b.set("trace.overhead_frac", ms(p.wall)/median(walls)-1)
	if err := b.kernelProbe(); err != nil {
		return err
	}
	return b.toolchainProbe()
}

// kernelProbe runs the Fig 9 validation shape (one instance of each
// application on every Fig 9 configuration, FRFS, kernels executing)
// against a registry whose every symbol is timed.
func (b *bench) kernelProbe() error {
	var clock layerClock
	reg, err := timingRegistry(apps.Registry(), &clock)
	if err != nil {
		return err
	}
	specs := apps.Specs()
	arr, err := workload.Validation(specs, map[string]int{
		apps.NamePulseDoppler:   1,
		apps.NameRangeDetection: 1,
		apps.NameWiFiTX:         1,
		apps.NameWiFiRX:         1,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, cf := range experiments.Fig9Configs {
		cfg, err := platform.ZCU102(cf[0], cf[1])
		if err != nil {
			return err
		}
		e, err := core.New(core.Options{
			Config: cfg, Policy: sched.FRFS{}, Registry: reg, Seed: 1000,
			JitterSigma: 0.04, Programs: core.NewProgramCache(), Sink: stats.Discard{},
		})
		if err != nil {
			return err
		}
		if _, err := e.Run(arr); err != nil {
			return fmt.Errorf("kernel probe %s: %w", cfg.Name, err)
		}
	}
	b.spans.add("kernels.validation", 0, start, time.Now())
	b.set("kernels.exec_s", clock.seconds())
	b.set("kernels.calls", float64(clock.calls))
	return nil
}

// toolchainProbe times Case Study 4's conversion steps directly:
// MiniC compilation, outlining (the traced execution), and DAG
// generation with and without kernel recognition.
func (b *bench) toolchainProbe() error {
	src := outliner.MonolithicRangeDetection(cs4N, cs4N/8)
	start := time.Now()
	mod, err := minic.Compile(src, "rd_monolithic")
	if err != nil {
		return err
	}
	b.set("minic.compile_s", time.Since(start).Seconds())
	b.spans.add("minic.compile", 0, start, time.Now())
	start = time.Now()
	res, err := outliner.Convert(mod, outliner.Options{MaxSteps: 2_000_000_000})
	if err != nil {
		return err
	}
	b.set("outliner.convert_s", time.Since(start).Seconds())
	b.spans.add("outliner.convert", 0, start, time.Now())
	start = time.Now()
	for _, recognize := range []bool{false, true} {
		if _, _, err := outliner.GenerateSpec(res, outliner.SpecOptions{
			AppName: "rd_auto", Registry: kernels.NewRegistry(), Recognize: recognize,
		}); err != nil {
			return err
		}
	}
	b.set("outliner.spec_s", time.Since(start).Seconds())
	b.spans.add("outliner.spec", 0, start, time.Now())
	return nil
}
