package main

// The two emulation workloads: one emulator run per operation, timed
// around Run/RunStream. Traced operations wrap the policy, the sink and
// the arrival source; core's self time is what remains of the run's
// wall time.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/appmodel"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// emuWorkload describes one emulation workload.
type emuWorkload struct {
	platform func() (*platform.Config, error)
	policy   string
	// stream runs RunStream over a lazy Poisson source into
	// stats.Online; otherwise the Poisson trace is materialised and run
	// through batch Run with the full report (nil sink).
	stream bool
	rate   float64 // aggregate jobs/ms, paper application mix
	frame  vtime.Duration
	// streams is how many distinct Poisson streams a run emulates, in
	// turn. Host cost per task differs between streams far more than
	// their task counts do (on the many-PE load, from 0.9 to 2.1 us per
	// task between streams of one rate), so a run's figure pools many
	// streams rather than resting on one.
	streams int
}

// manyPE is FRFS on the 32C+8F synthetic pool, loaded past its knee
// (about 1.5-2 jobs/ms) so the ready window grows to ~2x10^4 within the
// 1 s horizon while the policy stays cheap: host time sits in core's
// bookkeeping and the sink.
var manyPE = emuWorkload{
	platform: func() (*platform.Config, error) { return platform.Synthetic(32, 8) },
	policy:   "frfs",
	stream:   true,
	rate:     4,
	frame:    vtime.Second,
	streams:  48,
}

// odroidEFT is EFT on 4BIG+3LTL at 8 jobs/ms over one 100 ms frame:
// the policy is almost all of host time (the saturated-EFT wall).
var odroidEFT = emuWorkload{
	platform: func() (*platform.Config, error) { return platform.OdroidXU3(4, 3) },
	policy:   "eft",
	stream:   false,
	rate:     8,
	frame:    100 * vtime.Millisecond,
	streams:  4,
}

func runManyPE(b *bench) error { return runEmulation(b, manyPE) }
func runOdroid(b *bench) error { return runEmulation(b, odroidEFT) }

// emuState is what set-up builds: the platform, the application specs
// compiled into a private program cache, and the workload's streams.
type emuState struct {
	w        emuWorkload
	cfg      *platform.Config
	specs    map[string]*appmodel.AppSpec
	reg      *kernels.Registry
	programs *core.ProgramCache
	ps       []workload.PoissonSpec
	traces   [][]core.Arrival // batch workloads only
	compile  time.Duration
	gen      time.Duration
}

func setupEmulation(w emuWorkload, seed int64) (*emuState, error) {
	cfg, err := w.platform()
	if err != nil {
		return nil, err
	}
	st := &emuState{w: w, cfg: cfg, specs: apps.Specs(), reg: apps.Registry(), programs: core.NewProgramCache()}
	names := make([]string, 0, len(st.specs))
	for name := range st.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	start := time.Now()
	for _, name := range names {
		if _, err := st.programs.Get(st.specs[name], cfg, st.reg); err != nil {
			return nil, err
		}
	}
	st.compile = time.Since(start)
	start = time.Now()
	for k := 0; k < w.streams; k++ {
		ps, err := workload.RatePoisson(w.rate, w.frame, streamSeed(seed, k))
		if err != nil {
			return nil, err
		}
		st.ps = append(st.ps, ps)
		if w.stream {
			_, err = workload.NewPoissonSource(st.specs, ps)
		} else {
			var trace []core.Arrival
			trace, err = fixedCountTrace(st.specs, ps)
			st.traces = append(st.traces, trace)
		}
		if err != nil {
			return nil, err
		}
	}
	st.gen = time.Since(start)
	return st, nil
}

// streamSeed is the Poisson seed of a run's k-th stream.
func streamSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// fixedCountTrace materialises ps as a trace with each application's
// expected arrival count over the frame: the first rate x frame
// arrivals of that application's Poisson stream. Every seed then
// emulates the same tasks and only arrival times vary; a frame-bounded
// draw would vary the heavy pulse-Doppler count (770 tasks each) by
// about +-15% between seeds, and EFT's cost with it.
func fixedCountTrace(specs map[string]*appmodel.AppSpec, ps workload.PoissonSpec) ([]core.Arrival, error) {
	var trace []core.Arrival
	for _, r := range ps.Rates {
		src, err := workload.NewPoissonSource(specs, workload.PoissonSpec{Rates: []workload.AppPoisson{r}, Seed: ps.Seed})
		if err != nil {
			return nil, err
		}
		n := int(math.Round(r.JobsPerMS * ps.Frame.Milliseconds()))
		for i := 0; i < n; i++ {
			a, _ := src.Next() // unbounded: never exhausted
			trace = append(trace, a)
		}
	}
	sort.SliceStable(trace, func(i, j int) bool {
		if trace[i].At != trace[j].At {
			return trace[i].At < trace[j].At
		}
		return trace[i].Spec.AppName < trace[j].Spec.AppName
	})
	return trace, nil
}

// emuOp is one emulation's outcome.
type emuOp struct {
	start  time.Time
	wall   time.Duration
	digest string
	tasks  int64
	// The report's scheduler path and exact counters (the report itself
	// is dropped: batch reports hold every task record).
	path     string
	sched    stats.SchedStats
	makespan vtime.Duration

	// traced operations only
	policy policyProbe
	sink   layerClock
	source layerClock
	arr    int64
	gc     gcDelta
	cpu    time.Duration
}

// emulate runs one emulation of stream k, traced or not, with a fresh
// policy, sink and source over the set-up's programs and the shared
// scratch.
func (st *emuState) emulate(k int, scratch *core.Scratch, traced bool) (*emuOp, error) {
	op := &emuOp{}
	seed := st.ps[k].Seed
	policy, err := sched.New(st.w.policy, seed)
	if err != nil {
		return nil, err
	}
	if traced {
		policy = wrapPolicy(policy, &op.policy)
	}
	opts := core.Options{
		Config: st.cfg, Policy: policy, Registry: st.reg, Seed: seed,
		SkipExecution: true, Scratch: scratch, Programs: st.programs,
	}
	var online *stats.Online
	var tsink *timedSink
	var tsrc *timedSource
	var src core.ArrivalSource
	if st.w.stream {
		online = stats.NewOnline(0)
		opts.Sink = online
		if traced {
			tsink = &timedSink{s: online}
			opts.Sink = tsink
		}
		ol, err := workload.NewPoissonSource(st.specs, st.ps[k])
		if err != nil {
			return nil, err
		}
		src = ol
		if traced {
			tsrc = &timedSource{src: ol}
			src = tsrc
		}
	}
	e, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	var m0 runtime.MemStats
	if traced {
		m0 = readMem()
	}
	cpu0 := cpuTime()
	op.start = time.Now()
	var rep *stats.Report
	if st.w.stream {
		rep, err = e.RunStream(src)
	} else {
		rep, err = e.Run(st.traces[k])
	}
	op.wall = time.Since(op.start)
	op.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	if traced {
		op.gc = memDelta(m0, readMem())
		if st.w.stream {
			op.sink = tsink.clock
			op.source, op.arr = tsrc.clock, tsrc.arrivals
		}
	}
	op.path, op.sched, op.makespan = rep.SchedulerPath, rep.Sched, rep.Makespan
	for _, pe := range rep.PEs {
		op.tasks += int64(pe.Tasks)
	}
	h := newDigest()
	if err := reportDigest(h, rep); err != nil {
		return nil, err
	}
	if online != nil {
		onlineDigest(h, online, rep.PEs)
	}
	op.digest = sum(h)
	return op, nil
}

// innerNS is the wall time spent inside the wrapped layers' calls. The
// core's self time is the rest of the run's wall time, so the four
// layers account for the run by construction.
func (op *emuOp) innerNS() int64 { return op.policy.clock.ns + op.sink.ns + op.source.ns }

// runEmulation is the shared driver of the emulation workloads. Op i
// emulates stream i mod streams. With tracing on, each stream runs
// untraced and then traced, so every traced op has an untraced twin
// with the same input: its digest must match, and the pair's wall
// times give the tracing overhead.
func runEmulation(b *bench, w emuWorkload) error {
	var compiles, gens []float64
	st, err := timeSetup(b, func() (*emuState, error) {
		st, err := setupEmulation(w, b.seed)
		if err == nil {
			compiles = append(compiles, st.compile.Seconds())
			gens = append(gens, st.gen.Seconds())
		}
		return st, err
	}, nil)
	if err != nil {
		return err
	}
	scratch := core.NewScratch()
	refs := make([]string, w.streams)
	check := func(i, k int, op *emuOp, traced bool) {
		if !b.checkDigest(b.workload, k, op.digest, &refs[k], false) {
			return
		}
		if op.path != core.SchedulerPathIndexed {
			b.fail("op %d: scheduler path %q, want %q", i, op.path, core.SchedulerPathIndexed)
			return
		}
		if traced && op.policy.clock.calls != int64(op.sched.Invocations) {
			b.fail("op %d: policy called %d times, %d invocations", i, op.policy.clock.calls, op.sched.Invocations)
		}
	}
	// One untimed warm-up emulation grows the scratch buffers and the
	// heap to their steady state; its output is still checked.
	warm, err := st.emulate(0, scratch, false)
	if err != nil {
		return err
	}
	b.attempted++
	check(-1, 0, warm, false)

	walls := make([][]float64, w.streams) // untraced, per stream
	tasks := make([]int64, w.streams)
	var traced []*emuOp
	var overhead []float64
	minOps := w.streams
	if b.trace {
		minOps = 2 * w.streams
	}
	err = b.loop(minOps, func(i int) (time.Duration, error) {
		k, tr := i%w.streams, false
		if b.trace {
			k, tr = (i/2)%w.streams, i%2 == 1
		}
		op, err := st.emulate(k, scratch, tr)
		if err != nil {
			return 0, err
		}
		b.attempted++
		check(i, k, op, tr)
		name := "emulation"
		if tr {
			name = "emulation.traced"
			traced = append(traced, op)
			overhead = append(overhead, float64(op.wall)/walls[k][len(walls[k])-1]-1)
		} else {
			walls[k] = append(walls[k], float64(op.wall))
			tasks[k] = op.tasks
		}
		b.spans.add(fmt.Sprintf("%s.stream%d", name, k), 0, op.start, op.start.Add(op.wall))
		return op.wall, nil
	})
	if err != nil {
		return err
	}

	// Each stream's wall is the median over its ops. Both metrics pool
	// the streams: throughput is every stream's tasks over their summed
	// walls, latency the mean stream wall.
	var sumTasks, sumNS float64
	for k := range walls {
		sumTasks += float64(tasks[k])
		sumNS += median(walls[k])
	}
	b.set("throughput_per_s", sumTasks/(sumNS/1e9))
	b.set("latency_ms", sumNS/float64(w.streams)/1e6)
	if !b.trace {
		return nil
	}
	b.set("core.compile_s", median(compiles))
	b.set("workload.gen_s", median(gens))
	b.set("trace.overhead_frac", median(overhead))
	layer := func(name string, f func(op *emuOp) float64) {
		var xs []float64
		for _, op := range traced {
			xs = append(xs, f(op))
		}
		b.set(name, median(xs))
	}
	layer("core.self_s", func(op *emuOp) float64 { return float64(int64(op.wall)-op.innerNS()) / 1e9 })
	layer("core.ns_per_task", func(op *emuOp) float64 { return float64(int64(op.wall)-op.innerNS()) / float64(op.tasks) })
	layer("sched.self_s", func(op *emuOp) float64 { return op.policy.clock.seconds() })
	layer("sched.ns_per_call", func(op *emuOp) float64 { return op.policy.clock.nsPer() })
	layer("stats.sink_s", func(op *emuOp) float64 { return op.sink.seconds() })
	layer("stats.ns_per_record", func(op *emuOp) float64 { return op.sink.nsPer() })
	layer("workload.next_s", func(op *emuOp) float64 { return op.source.seconds() })
	layer("gc.cycles", func(op *emuOp) float64 { return op.gc.cycles })
	layer("gc.pause_s", func(op *emuOp) float64 { return op.gc.pauseS })
	layer("gc.alloc_mb", func(op *emuOp) float64 { return op.gc.allocMB })
	layer("gc.allocs", func(op *emuOp) float64 { return op.gc.allocs })
	layer("sweep.cpu_util", func(op *emuOp) float64 { return cpuUtil(op.cpu, op.wall) })

	// Exact counters of stream 0 (its first traced op).
	op := traced[0]
	r := op.sched
	b.set("core.tasks", float64(op.tasks))
	b.set("core.invocations", float64(r.Invocations))
	b.set("core.charged_ops", float64(r.TotalOps))
	b.set("core.max_ready", float64(r.MaxReadyLen))
	b.set("core.mean_ready", r.AvgReadyLen())
	b.set("core.makespan_ns", float64(op.makespan))
	b.set("core.overhead_ns", float64(r.OverheadNS))
	b.set("sched.calls", float64(op.policy.clock.calls))
	b.set("sched.ops", float64(op.policy.ops))
	b.set("sched.assigned", float64(op.policy.assigned))
	b.set("sched.empty_frac", float64(op.policy.empty)/float64(max(op.policy.clock.calls, 1)))
	b.set("stats.records", float64(op.sink.calls))
	b.set("workload.arrivals", float64(op.arr))
	return nil
}
