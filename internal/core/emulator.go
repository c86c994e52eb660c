package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/appmodel"
	"repro/internal/kernels"
	"repro/internal/platevent"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// ExecTiming selects how task durations are obtained.
type ExecTiming int

const (
	// Modeled uses the calibrated platform timing model (the default;
	// fully deterministic).
	Modeled ExecTiming = iota
	// Measured times the actual Go kernel execution on the host and
	// scales it by the PE speed factor — closer in spirit to the
	// paper's real-hardware emulation, but host-dependent.
	Measured
)

// Overhead charging weights: abstract operation counts for the
// workload-manager work that the paper's Figure 10b measures around
// the policy invocation itself (completion monitoring, ready-queue
// update, communicating tasks to resource managers). Multiplied by the
// overlay core's SchedOpNS.
const (
	// monitorOpsPerPE covers acquiring the resource-handler lock,
	// reading the status field, and updating the ready list.
	monitorOpsPerPE = 6
	// dispatchOpsPerTask covers transferring one scheduled task to its
	// resource manager through the handler.
	dispatchOpsPerTask = 10
	// invocationBaseOps is the fixed entry/exit cost per scheduler
	// invocation.
	invocationBaseOps = 8
	// measuredAccelComputeFactor scales a host-measured CPU kernel
	// time to the accelerator's compute time in Measured mode (the
	// pipelined IP computes faster than the A53 but sits behind DMA).
	measuredAccelComputeFactor = 0.12
)

// Options configures an Emulator.
type Options struct {
	// Config is the emulated DSSoC hardware configuration.
	Config *platform.Config
	// Policy is the task scheduling heuristic.
	Policy sched.Policy
	// Registry resolves runfunc symbols; kernels.Default() plus the
	// application library is typical.
	Registry *kernels.Registry
	// Seed drives the jitter model (and nothing else).
	Seed int64
	// JitterSigma is the log-normal run-to-run noise level; 0 for
	// fully deterministic timing.
	JitterSigma float64
	// Timing selects modeled or host-measured task durations.
	Timing ExecTiming
	// SkipExecution disables functional kernel execution, leaving a
	// pure timing simulation. Used by large scheduler sweeps where
	// the numeric results are not inspected. Timing-only instances
	// also skip variable-memory allocation entirely (Mem is nil).
	SkipExecution bool
	// Scratch supplies reusable working buffers, letting sweep
	// workers amortise the emulator's per-run allocations across many
	// cells. nil allocates a private scratch; a non-nil scratch must
	// not be used by two emulators concurrently.
	Scratch *Scratch
	// Programs supplies the compiled-template cache. nil uses the
	// process-wide shared cache; set a private cache only for
	// isolation (tests, generated-spec churn).
	Programs *ProgramCache
	// Sink receives per-task and per-app records as they complete. nil
	// keeps the classic behaviour: every record lands in Report.Tasks /
	// Report.Apps. A non-nil sink replaces that collection — the report
	// slices stay empty and memory no longer grows with the task count,
	// which is what long-horizon and saturation runs need (pair with
	// stats.Online). The sink must not be shared by concurrent runs.
	Sink stats.Sink
	// Events is the dynamic-platform event schedule: PE faults and
	// restores, DVFS speed steps, power caps, applied at their virtual
	// instants at the top of the discrete-event loop (platevent package
	// doc). nil or empty leaves the platform static — byte-identical to
	// an emulator built without the field. Every Run replays the same
	// schedule from the top. The schedule is read-only here and may be
	// shared across emulators.
	Events *platevent.Schedule
}

// ArrivalSource is a workload stream: Next returns arrivals one at a
// time in nondecreasing time order, ok=false when the stream is
// exhausted. RunStream pulls from the source lazily, so an open-loop
// generator (workload.Poisson and friends) can drive arbitrarily long
// horizons without the trace — or the task slab — ever being
// materialised in memory.
type ArrivalSource interface {
	Next() (Arrival, bool)
}

// Arrival pairs an application archetype with its injection timestamp
// relative to the emulation reference start time.
type Arrival struct {
	Spec *appmodel.AppSpec
	At   vtime.Time
}

// Emulator runs one emulation: it owns the virtual clock, the resource
// handlers, and the statistics collector.
type Emulator struct {
	opts     Options
	clock    vtime.Clock
	jitter   *vtime.Jitter
	handlers []*ResourceHandler
	// handlerSlab backs handlers with one allocation.
	handlerSlab []ResourceHandler
	// peViews is the fixed scheduler view of the handlers, built once:
	// the handler table never changes, so the per-invocation rebuild
	// the pre-indexed emulator did was pure waste.
	peViews []sched.PE
	// view is the incrementally maintained indexed scheduler state
	// (per-class idle bitmaps, per-PE load/availability, the ready list
	// with compiled metadata). Every emulator has one, whatever the
	// number of cost classes: its deque is the one and only ready list.
	view *sched.View
	// schedPath names the scheduling path this emulator resolved to at
	// construction (SchedulerPath* constants): which policy machinery
	// every Run uses. Exposed through SchedulerPath() and stamped into
	// each report, so a run that misses the fast path is visible
	// instead of just slow.
	schedPath string
	// streamed marks that the last Run went through RunStream, whose
	// instance recycling makes Instances() meaningless (it would always
	// be empty): reading it then is a loud error, not a silent nil.
	streamed bool
	// programs memoises this emulator's (config, registry) view of the
	// template cache per spec, so the per-arrival lookup in Run is one
	// map probe without cache locking.
	programs map[*appmodel.AppSpec]*Program

	instances []*AppInstance
	// nextIdx is the next not-yet-injected entry of instances (slice
	// runs only).
	nextIdx int

	// Streaming-run state (RunStream): the arrival source, a one-entry
	// lookahead, the arrival sequence counter, and per-program free
	// lists of recycled instances. Completed instances return to the
	// free list, so peak memory follows the in-flight instance count
	// rather than the workload length.
	src         ArrivalSource
	pending     Arrival
	havePending bool
	arrivalSeq  int
	freeInst    map[*Program][]*AppInstance

	// platEvents is Options.Events sorted into application order;
	// evCursor walks it once per run (reset by beginRun).
	platEvents []platevent.Event
	evCursor   int
	// dynMeta re-lowers per-node ready metadata against the view's
	// extended class table when DVFS pre-interning added cost classes
	// beyond the configuration's own — the compiled meta's Costs tables
	// are too short then. Nil on static runs and whenever the event
	// speeds collapse into existing classes, so the zero-event path
	// still pushes the compiled records untouched. Derivations are
	// memoised per node (the class table never changes after New) and
	// survive across runs.
	dynMeta map[*progNode]*sched.ReadyMeta

	report            *stats.Report
	pendingMonitorOps int
}

// SchedulerPath values: which scheduling machinery an emulator's runs
// use, exposed on the emulator and stamped into every report. Both
// paths share the view's incrementally maintained ready list; they
// differ only in what the policy consumes.
const (
	// SchedulerPathIndexed: indexed view + the policy's ScheduleIndexed
	// fast path — the intended steady state for every built-in policy.
	SchedulerPathIndexed = "indexed"
	// SchedulerPathSlice: the policy (third-party, or wrapped in
	// sched.SliceOnly) consumes the view's ready window and the PE
	// table as slices.
	SchedulerPathSlice = "slice"
)

// New validates the options and builds an emulator. Degenerate
// configurations — no PEs, a PE without a type, a missing overlay
// processor — fail here with a descriptive error instead of surfacing
// as a crashed or stuck emulation at runtime.
func New(opts Options) (*Emulator, error) {
	if opts.Config == nil || len(opts.Config.PEs) == 0 {
		return nil, fmt.Errorf("core: configuration with at least one PE required")
	}
	for i, pe := range opts.Config.PEs {
		if pe == nil || pe.Type == nil {
			return nil, fmt.Errorf("core: configuration %s: PE %d has no type", opts.Config.Name, i)
		}
	}
	if opts.Config.Overlay == nil {
		return nil, fmt.Errorf("core: configuration %s has no overlay (management) processor", opts.Config.Name)
	}
	if opts.Policy == nil {
		return nil, fmt.Errorf("core: scheduling policy required")
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("core: kernel registry required")
	}
	if opts.Scratch == nil {
		opts.Scratch = NewScratch()
	}
	if opts.Programs == nil {
		opts.Programs = sharedPrograms
	}
	e := &Emulator{
		opts:     opts,
		jitter:   vtime.NewJitter(opts.Seed, opts.JitterSigma),
		programs: make(map[*appmodel.AppSpec]*Program),
	}
	if err := opts.Events.Validate(len(opts.Config.PEs)); err != nil {
		return nil, fmt.Errorf("core: configuration %s: %w", opts.Config.Name, err)
	}
	e.handlerSlab = make([]ResourceHandler, len(opts.Config.PEs))
	for i, pe := range opts.Config.PEs {
		h := &e.handlerSlab[i]
		*h = ResourceHandler{
			PE:      pe,
			status:  StatusIdle,
			idx:     int32(i),
			typeIdx: int32(opts.Config.TypeIndex(pe.Type.Key)),
			speed:   pe.Type.SpeedFactor,
		}
		e.handlers = append(e.handlers, h)
		e.peViews = append(e.peViews, h)
	}
	// Every PE is typed (checked above), so the view always exists.
	e.view = sched.NewView(e.peViews)
	e.platEvents = opts.Events.Events()
	// Pre-intern every DVFS target signature: the event schedule is
	// known now, so the view's class table is complete (and stable
	// across runs) before the first task is pushed against it.
	for _, ev := range e.platEvents {
		if ev.Kind == platevent.SetSpeed {
			h := e.handlers[ev.PE]
			e.view.InternClass(int32(h.TypeID()), ev.Speed, h.PowerW())
		}
	}
	if e.view.NumClasses() > opts.Config.NumClasses() {
		e.dynMeta = make(map[*progNode]*sched.ReadyMeta)
	}
	e.schedPath = SchedulerPathSlice
	if _, ok := opts.Policy.(sched.IndexedPolicy); ok {
		e.schedPath = SchedulerPathIndexed
	}
	return e, nil
}

// SchedulerPath reports which scheduling path this emulator resolved
// to at construction (one of the SchedulerPath* constants). It is also
// stamped into every report as Report.SchedulerPath.
func (e *Emulator) SchedulerPath() string { return e.schedPath }

// program resolves the compiled template of one archetype for this
// emulator's configuration and registry: the application handler's
// parse-time work (symbol resolution, platform validation), executed
// at most once per (spec, config, registry) process-wide.
func (e *Emulator) program(spec *appmodel.AppSpec) (*Program, error) {
	if p, ok := e.programs[spec]; ok {
		return p, nil
	}
	p, err := e.opts.Programs.Get(spec, e.opts.Config, e.opts.Registry)
	if err != nil {
		return nil, err
	}
	e.programs[spec] = p
	return p, nil
}

// beginRun resets the emulator to its start-of-run state: fresh
// clock, empty ready list, reseeded jitter, reset policy and handlers,
// and a fresh report. When no sink is configured the report's task
// slice is presized from the scratch's capacity hint.
func (e *Emulator) beginRun() *Scratch {
	s := e.opts.Scratch
	e.clock.Reset()
	e.instances = nil
	e.nextIdx = 0
	e.src = nil
	e.havePending = false
	e.arrivalSeq = 0
	e.pendingMonitorOps = 0
	e.evCursor = 0
	// Re-seed so repeated Runs of one emulator are identical; stateful
	// policies (RANDOM's generator) reset the same way.
	e.jitter.Reseed(e.opts.Seed, e.opts.JitterSigma)
	if r, ok := e.opts.Policy.(sched.Resettable); ok {
		r.Reset()
	}
	for _, h := range e.handlers {
		h.resetForRun()
	}
	e.view.Reset()
	e.streamed = false
	s.clearMasks()
	s.events = s.events[:0]
	e.report = &stats.Report{
		ConfigName:    e.opts.Config.Name,
		PolicyName:    e.opts.Policy.Name(),
		SchedulerPath: e.schedPath,
	}
	if e.opts.Sink == nil {
		e.report.Tasks = s.taskRecords()
	}
	return s
}

// endRun hands the realised task count back to the scratch on every
// exit — error paths included — and
// clears everything that must not outlive this run (see
// Scratch.release). Stream free lists survive between runs: they are
// bounded by the peak in-flight instance count and reference only
// templates the emulator's program cache pins anyway, so retaining
// them keeps back-to-back streamed runs allocation-free.
func (e *Emulator) endRun(s *Scratch) {
	if e.opts.Sink == nil {
		s.noteTaskCount(len(e.report.Tasks))
	}
	e.src = nil
	s.release()
}

// finishReport stamps the end-of-run aggregates onto the report.
func (e *Emulator) finishReport() *stats.Report {
	e.report.Makespan = vtime.Duration(e.clock.Now())
	for _, h := range e.handlers {
		e.report.PEs = append(e.report.PEs, stats.PEStats{
			PEID:    h.PE.ID,
			Label:   h.PE.Label(),
			BusyNS:  h.busyNS,
			Tasks:   h.tasks,
			EnergyJ: float64(h.busyNS) * h.PE.Type.PowerW * 1e-9,
		})
	}
	return e.report
}

// Run executes the emulation for the given workload and returns the
// collected statistics. Each Run starts a fresh clock and fresh state;
// the same emulator may Run repeatedly and reuses its buffers.
func (e *Emulator) Run(arrivals []Arrival) (*stats.Report, error) {
	s := e.beginRun()
	defer e.endRun(s)

	// Initialisation phase, split compile/instantiate: resolve every
	// workload entry's compiled template (cached parse-time work),
	// then stamp instances into one contiguous task slab. The sorted
	// copy lives in scratch; it is consumed during instantiation and
	// never escapes.
	sorted := s.sortedArrivals(arrivals)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	progs := s.programSlots(len(sorted))
	totalTasks := 0
	for i, a := range sorted {
		if a.Spec == nil {
			return nil, fmt.Errorf("core: workload entry %d has no application", i)
		}
		if a.At < 0 {
			return nil, fmt.Errorf("core: workload entry %d has negative arrival %v", i, a.At)
		}
		p, err := e.program(a.Spec)
		if err != nil {
			return nil, err
		}
		progs[i] = p
		totalTasks += len(p.nodes)
	}
	taskSlab := s.taskSlots(totalTasks)
	instSlab, instPtrs := s.instanceSlots(len(sorted))
	off := 0
	for i, a := range sorted {
		prog := progs[i]
		n := len(prog.nodes)
		slab := taskSlab[off : off+n : off+n]
		off += n
		inst := &instSlab[i]
		if err := e.stampInstance(inst, a.Spec, a.At, i, prog, slab); err != nil {
			return nil, err
		}
		instPtrs[i] = inst
	}
	e.instances = instPtrs

	if err := e.loop(); err != nil {
		return nil, err
	}
	return e.finishReport(), nil
}

// RunStream executes the emulation against an arrival stream instead
// of a materialised trace. Arrivals are instantiated lazily at their
// injection instant and completed instances are recycled through
// per-program free lists, so peak memory is proportional to the
// in-flight instance count — independent of the stream length. This is
// the entry point for open-loop (Poisson, bursty) and long-horizon
// workloads; pair it with a streaming Sink (stats.Online) or the
// report's record slices will still grow with the task count.
//
// The source must yield arrivals in nondecreasing time order (the
// workload package's generators do). A given trace produces the exact
// same report through Run and RunStream. Instances() PANICS after a
// streamed run: completed instances are recycled, so functional
// (memory-inspecting) validation must use Run (or collect records
// through a stats.Sink).
func (e *Emulator) RunStream(src ArrivalSource) (*stats.Report, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil arrival source")
	}
	s := e.beginRun()
	defer e.endRun(s)
	e.streamed = true
	e.src = src
	if err := e.advancePending(); err != nil {
		return nil, err
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	return e.finishReport(), nil
}

// advancePending pulls the next arrival of the stream into the
// lookahead slot, validating the source's time-ordering contract.
func (e *Emulator) advancePending() error {
	a, ok := e.src.Next()
	if !ok {
		e.havePending = false
		return nil
	}
	if a.Spec == nil {
		return fmt.Errorf("core: stream arrival %d has no application", e.arrivalSeq)
	}
	if a.At < 0 {
		return fmt.Errorf("core: stream arrival %d has negative arrival %v", e.arrivalSeq, a.At)
	}
	if e.havePending && a.At < e.pending.At {
		return fmt.Errorf("core: stream arrival %d at %v precedes predecessor at %v; sources must be time-ordered",
			e.arrivalSeq, a.At, e.pending.At)
	}
	e.pending = a
	e.havePending = true
	return nil
}

// stampInstance initialises one application instance in place: the
// header, the optional variable memory (skipped on timing-only runs —
// memory initialisation is per-instance work and cannot be compiled
// away), and every task of the slab. Both instantiation paths (batch
// Run and RunStream) go through it, so the byte-for-byte equivalence
// contract between them cannot drift.
func (e *Emulator) stampInstance(inst *AppInstance, spec *appmodel.AppSpec, at vtime.Time, idx int, prog *Program, tasks []Task) error {
	*inst = AppInstance{
		Spec:      spec,
		Index:     idx,
		Arrival:   at,
		Tasks:     tasks,
		prog:      prog,
		remaining: len(prog.nodes),
	}
	if !e.opts.SkipExecution {
		mem, err := appmodel.NewMemory(spec)
		if err != nil {
			return err
		}
		inst.Mem = mem
	}
	for id := range prog.nodes {
		nd := &prog.nodes[id]
		tasks[id] = Task{
			App:            inst,
			node:           nd,
			choice:         -1,
			remainingPreds: nd.preds,
		}
	}
	return nil
}

// instantiateStream stamps one streamed arrival into an instance,
// reusing a recycled slab of the same compiled template when one is
// free.
func (e *Emulator) instantiateStream(a Arrival) (*AppInstance, error) {
	prog, err := e.program(a.Spec)
	if err != nil {
		return nil, err
	}
	var inst *AppInstance
	if free := e.freeInst[prog]; len(free) > 0 {
		inst = free[len(free)-1]
		free[len(free)-1] = nil
		e.freeInst[prog] = free[:len(free)-1]
	} else {
		inst = &AppInstance{Tasks: make([]Task, len(prog.nodes))}
	}
	if err := e.stampInstance(inst, a.Spec, a.At, e.arrivalSeq, prog, inst.Tasks); err != nil {
		return nil, err
	}
	e.arrivalSeq++
	return inst, nil
}

// --- completion-event tracker ------------------------------------------------

// pushEvent records that handler h completes its running task at `at`.
// The heap is exact: every StatusRun handler has exactly one pending
// event (dispatch pushes, the monitor pass pops), so its minimum IS
// the next completion instant and its length the running-PE count.
func (e *Emulator) pushEvent(at vtime.Time, h int32) {
	s := e.opts.Scratch
	s.events = append(s.events, peEvent{at: at, h: h})
	// Sift up. Ties break on handler index for full determinism.
	ev := s.events
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ev[parent].at < ev[i].at || (ev[parent].at == ev[i].at && ev[parent].h < ev[i].h) {
			break
		}
		ev[parent], ev[i] = ev[i], ev[parent]
		i = parent
	}
}

// peekEvent returns the earliest pending completion instant.
func (e *Emulator) peekEvent() (vtime.Time, bool) {
	ev := e.opts.Scratch.events
	if len(ev) == 0 {
		return 0, false
	}
	return ev[0].at, true
}

// popEventsDue removes every completion due at or before now and
// returns the handler indices in ascending order — the same order the
// reference workload manager's status scan observes them in.
func (e *Emulator) popEventsDue(now vtime.Time) []int32 {
	s := e.opts.Scratch
	due := s.due[:0]
	for len(s.events) > 0 && s.events[0].at <= now {
		due = append(due, s.events[0].h)
		// Standard binary-heap pop with sift-down.
		ev := s.events
		n := len(ev) - 1
		ev[0] = ev[n]
		s.events = ev[:n]
		ev = s.events
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < n && (ev[l].at < ev[min].at || (ev[l].at == ev[min].at && ev[l].h < ev[min].h)) {
				min = l
			}
			if r < n && (ev[r].at < ev[min].at || (ev[r].at == ev[min].at && ev[r].h < ev[min].h)) {
				min = r
			}
			if min == i {
				break
			}
			ev[i], ev[min] = ev[min], ev[i]
			i = min
		}
	}
	slices.Sort(due)
	s.due = due
	return due
}

// removeEvent cancels a handler's pending completion event — a PE
// fault discards its in-flight task, so the completion must never fire.
// Each running handler has exactly one heap entry; the scan is linear
// in the running-PE count, paid only on actual faults.
func (e *Emulator) removeEvent(h int32) {
	s := e.opts.Scratch
	ev := s.events
	for i := range ev {
		if ev[i].h != h {
			continue
		}
		n := len(ev) - 1
		ev[i] = ev[n]
		s.events = ev[:n]
		ev = s.events
		if i == n {
			return
		}
		less := func(a, b peEvent) bool {
			return a.at < b.at || (a.at == b.at && a.h < b.h)
		}
		// Restore the heap around the moved entry: sift down, and if it
		// did not move, sift up.
		j := i
		for {
			l, r := 2*j+1, 2*j+2
			min := j
			if l < n && less(ev[l], ev[min]) {
				min = l
			}
			if r < n && less(ev[r], ev[min]) {
				min = r
			}
			if min == j {
				break
			}
			ev[j], ev[min] = ev[min], ev[j]
			j = min
		}
		for j > 0 {
			parent := (j - 1) / 2
			if less(ev[parent], ev[j]) {
				break
			}
			ev[parent], ev[j] = ev[j], ev[parent]
			j = parent
		}
		return
	}
}

// --- dynamic-platform events -------------------------------------------------

// applyPlatEventsDue applies every platform event due at or before now,
// in schedule order, and reports whether any was consumed. This runs at
// the very top of the loop — before injection and completion monitoring
// — so an event at instant T is visible to every decision at T, and a
// fault at T beats a completion due at the same T: the in-flight task
// is requeued, not collected.
func (e *Emulator) applyPlatEventsDue(now vtime.Time) bool {
	applied := false
	for e.evCursor < len(e.platEvents) && e.platEvents[e.evCursor].At <= now {
		ev := e.platEvents[e.evCursor]
		e.evCursor++
		switch ev.Kind {
		case platevent.Fault:
			e.faultPE(ev.PE, now)
		case platevent.Restore:
			e.restorePE(ev.PE)
		case platevent.SetSpeed:
			e.setSpeed(ev.PE, ev.Speed)
		case platevent.PowerCap:
			if pc, ok := e.opts.Policy.(sched.PowerCapped); ok {
				pc.SetPowerCap(ev.CapW)
			}
		}
		e.report.PlatEvents++
		applied = true
	}
	return applied
}

// faultPE takes a PE offline: its pending completion is cancelled, the
// in-flight task and every reserved task requeue as ready at the fault
// instant (in-flight first, then the reservation queue FIFO), and the
// PE leaves the indexed state atomically. Idempotent.
func (e *Emulator) faultPE(pi int, now vtime.Time) {
	h := e.handlers[pi]
	if h.faulted {
		return
	}
	h.faulted = true
	if h.status == StatusRun {
		e.removeEvent(h.idx)
		t := h.current
		h.current = nil
		e.requeue(t, now)
	}
	for h.queueLen() > 0 {
		e.requeue(h.dequeue(), now)
	}
	h.status = StatusFaulted
	h.busyUntil = 0
	e.view.FaultPE(pi)
}

// requeue returns a fault-orphaned task to the ready list as of now.
// The partial execution is lost — no busy time or task count accrues to
// the dead PE — and the task will be dispatched afresh (its kernel,
// already run functionally, is not re-executed: Task.executed).
func (e *Emulator) requeue(t *Task, now vtime.Time) {
	t.choice = -1
	t.start, t.end = 0, 0
	t.busyDur = 0
	t.readyAt = now
	e.pushReady(t)
	e.report.Requeues++
}

// restorePE brings a faulted PE back online, idle. Idempotent.
func (e *Emulator) restorePE(pi int) {
	h := e.handlers[pi]
	if !h.faulted {
		return
	}
	h.faulted = false
	h.status = StatusIdle
	h.busyUntil = 0
	e.view.RestorePE(pi)
}

// setSpeed applies a DVFS step: the handler's speed factor changes and
// the PE migrates to the cost class of its new signature — pre-interned
// at construction, so the lookup cannot fail here.
func (e *Emulator) setSpeed(pi int, speed float64) {
	h := e.handlers[pi]
	h.speed = speed
	e.view.SetClass(pi, e.view.InternClass(int32(h.TypeID()), speed, h.PowerW()))
}

// pushReady appends a task to the ready list: the view's deque.
func (e *Emulator) pushReady(t *Task) {
	e.view.PushReady(t, e.metaOf(t))
}

// metaOf resolves the ready metadata pushed with a task: the compiled
// per-node record, unless DVFS pre-interning extended the class table
// past the configuration's — then a per-node re-lowering against the
// view's table (View.MetaFor: the identical arithmetic, wider Costs),
// derived once per node and memoised for the emulator's lifetime.
func (e *Emulator) metaOf(t *Task) *sched.ReadyMeta {
	if e.dynMeta == nil {
		return &t.node.meta
	}
	nd := t.node
	if m, ok := e.dynMeta[nd]; ok {
		return m
	}
	m := new(sched.ReadyMeta)
	*m = e.view.MetaFor(nd.choices)
	e.dynMeta[nd] = m
	return m
}

// injectInstance marks the instance injected at now and appends its
// head tasks to the ready list.
func (e *Emulator) injectInstance(inst *AppInstance, now vtime.Time) {
	inst.injected = now
	for _, hid := range inst.prog.heads {
		t := &inst.Tasks[hid]
		t.readyAt = now
		e.pushReady(t)
	}
}

// injectDue injects every workload entry due at or before now —
// pre-instantiated instances on a slice run, lazily instantiated ones
// on a streamed run — and reports whether anything was injected.
func (e *Emulator) injectDue(now vtime.Time) (bool, error) {
	any := false
	if e.src == nil {
		for e.nextIdx < len(e.instances) && e.instances[e.nextIdx].Arrival <= now {
			e.injectInstance(e.instances[e.nextIdx], now)
			e.nextIdx++
			any = true
		}
		return any, nil
	}
	for e.havePending && e.pending.At <= now {
		inst, err := e.instantiateStream(e.pending)
		if err != nil {
			return any, err
		}
		if err := e.advancePending(); err != nil {
			return any, err
		}
		e.injectInstance(inst, now)
		any = true
	}
	return any, nil
}

// nextArrivalAt reports the next pending injection instant; ok=false
// when the workload is exhausted.
func (e *Emulator) nextArrivalAt() (vtime.Time, bool) {
	if e.src == nil {
		if e.nextIdx < len(e.instances) {
			return e.instances[e.nextIdx].Arrival, true
		}
		return 0, false
	}
	if e.havePending {
		return e.pending.At, true
	}
	return 0, false
}

// loop is the workload manager's execution flow (Figure 3) as a
// discrete-event loop.
func (e *Emulator) loop() error {
	dirty := true
	for {
		now := e.clock.Now()

		// Apply dynamic-platform events due now, before injection and
		// completion monitoring: a fault at T beats a completion due at
		// the same T (the in-flight task requeues instead of finishing).
		if e.applyPlatEventsDue(now) {
			dirty = true
		}

		// Inject applications whose arrival time has passed.
		if injected, err := e.injectDue(now); err != nil {
			return err
		} else if injected {
			dirty = true
		}

		// Monitor running PEs; collect completions and update the
		// ready list with newly unblocked tasks. The event tracker
		// yields exactly the handlers whose tasks are due, in handler
		// order — the order the reference implementation's full status
		// scan observes them in.
		completions := 0
		for _, hi := range e.popEventsDue(now) {
			h := e.handlers[hi]
			h.status = StatusComplete
			e.completeTask(h, now)
			completions++
			e.view.AddLoad(int(h.idx), -1)
			// Reservation-queue PEs pull their next task locally,
			// without waiting for a scheduler invocation — the
			// low-overhead dispatch the paper's future work targets.
			if h.queueLen() > 0 {
				if err := e.dispatch(h.dequeue(), h, now); err != nil {
					return err
				}
			} else {
				h.status = StatusIdle
				e.view.MarkIdle(int(h.idx))
			}
		}
		if completions > 0 {
			// The reference workload manager processes one completion
			// per poll of its loop, scanning every resource handler's
			// status field under its lock each time — so the charged
			// monitoring cost is one full handler scan per collected
			// completion. This PE-count proportionality is what makes
			// large configurations on a slow overlay lose ground
			// (Figure 11's 4BIG+3LTL inversion).
			e.pendingMonitorOps += monitorOpsPerPE * len(e.handlers) * completions
			dirty = true
		}

		// Run the heuristic scheduler over the ready list.
		if dirty && e.view.ReadyLen() > 0 {
			if _, err := e.schedule(); err != nil {
				return err
			}
			dirty = false
			// The overhead charge moved the clock; re-observe state
			// (arrivals or completions may have become due) before
			// advancing to the next event.
			continue
		}
		dirty = false

		// Advance the clock to the next event: the earlier of the next
		// arrival and the tracked next completion.
		nextEvent := vtime.Time(math.MaxInt64)
		arrAt, morePending := e.nextArrivalAt()
		if morePending {
			nextEvent = arrAt
		}
		anyRunning := false
		if at, ok := e.peekEvent(); ok {
			anyRunning = true
			if at < nextEvent {
				nextEvent = at
			}
		}
		if !anyRunning && !morePending {
			if e.view.ReadyLen() == 0 {
				// Emulation complete. Trailing platform events with
				// nothing running, ready or arriving never apply — they
				// cannot affect the makespan.
				return nil
			}
			if e.evCursor >= len(e.platEvents) {
				return fmt.Errorf("core: %d ready tasks cannot be scheduled on config %s (policy %s): first is %s",
					e.view.ReadyLen(), e.opts.Config.Name, e.opts.Policy.Name(), e.view.Ready()[0].Label())
			}
			// Ready tasks are stranded (their capable PEs faulted or
			// capped away), but platform events remain: one may free
			// them, so advance to it instead of declaring deadlock.
		}
		if e.evCursor < len(e.platEvents) && e.platEvents[e.evCursor].At < nextEvent {
			// applyPlatEventsDue consumed everything at or before now, so
			// the pending head is strictly in the future — the advance
			// below always makes progress.
			nextEvent = e.platEvents[e.evCursor].At
		}
		if nextEvent == vtime.Time(math.MaxInt64) {
			return fmt.Errorf("core: emulation stalled with no future event")
		}
		if nextEvent > now {
			if err := e.clock.AdvanceTo(nextEvent); err != nil {
				return err
			}
		}
	}
}

// schedule invokes the policy, charges the workload-manager overhead
// on the virtual clock (the overlay core is the serialising resource),
// and dispatches the returned assignments. Returns whether any task
// was dispatched or queued.
func (e *Emulator) schedule() (bool, error) {
	now := e.clock.Now()
	s := e.opts.Scratch
	// The maintained view: indexed policies consume the per-class idle
	// bitmaps directly; everything else gets the incrementally
	// maintained ready slice plus the fixed PE table — either way,
	// nothing is rebuilt per invocation.
	var res sched.Result
	if ip, ok := e.opts.Policy.(sched.IndexedPolicy); ok {
		res = ip.ScheduleIndexed(now, e.view)
	} else {
		res = e.opts.Policy.Schedule(now, e.view.Ready(), e.peViews)
	}
	readyLen := e.view.ReadyLen()

	ops := res.Ops + e.pendingMonitorOps + invocationBaseOps +
		dispatchOpsPerTask*len(res.Assignments)
	e.pendingMonitorOps = 0
	overhead := vtime.Duration(float64(ops) * e.opts.Config.Overlay.SchedOpNS)
	e.report.Sched.Invocations++
	e.report.Sched.TotalOps += int64(ops)
	e.report.Sched.OverheadNS += int64(overhead)
	e.report.Sched.TotalReadyLn += int64(readyLen)
	if readyLen > e.report.Sched.MaxReadyLen {
		e.report.Sched.MaxReadyLen = readyLen
	}
	if err := e.clock.Advance(overhead); err != nil {
		return false, err
	}
	dispatchAt := e.clock.Now()

	if len(res.Assignments) == 0 {
		sched.ReleaseResult(&res)
		return false, nil
	}
	// Validate and apply the batch. The masks live in scratch under an
	// all-false invariant: only the batch's own indices are dirtied, and
	// they are reset after the batch is applied, so checking one out
	// costs O(batch), not an O(window) clear per invocation (error
	// paths abort the run, and beginRun re-clears defensively).
	// Assignment TaskIndex values are window-relative, like the view
	// the policy saw.
	window := e.view.Ready()
	taken := s.takenMask(len(e.handlers))
	remove := s.removeMask(len(window))
	for _, a := range res.Assignments {
		if a.TaskIndex < 0 || a.TaskIndex >= len(window) || a.PEIndex < 0 || a.PEIndex >= len(e.handlers) {
			return false, fmt.Errorf("core: policy %s produced out-of-range assignment %+v", e.opts.Policy.Name(), a)
		}
		if remove[a.TaskIndex] {
			return false, fmt.Errorf("core: policy %s assigned task %d twice", e.opts.Policy.Name(), a.TaskIndex)
		}
		h := e.handlers[a.PEIndex]
		t := window[a.TaskIndex].(*Task)
		if t.node.choiceByType[h.typeIdx] < 0 {
			return false, fmt.Errorf("core: policy %s sent %s to unsupported PE %s",
				e.opts.Policy.Name(), t.Label(), h.PE.Label())
		}
		if h.faulted {
			return false, fmt.Errorf("core: policy %s assigned %s to faulted PE %s",
				e.opts.Policy.Name(), t.Label(), h.PE.Label())
		}
		if h.status != StatusIdle {
			if !e.opts.Policy.UsesQueues() {
				return false, fmt.Errorf("core: policy %s assigned busy PE %s", e.opts.Policy.Name(), h.PE.Label())
			}
			h.enqueue(t)
		} else if taken[a.PEIndex] {
			if !e.opts.Policy.UsesQueues() {
				return false, fmt.Errorf("core: policy %s double-booked PE %s", e.opts.Policy.Name(), h.PE.Label())
			}
			h.enqueue(t)
		} else {
			if err := e.dispatch(t, h, dispatchAt); err != nil {
				return false, err
			}
			taken[a.PEIndex] = true
		}
		// One task handed to the handler, dispatched or reserved.
		e.view.AddLoad(a.PEIndex, 1)
		remove[a.TaskIndex] = true
	}
	e.view.CompactReady(remove, len(res.Assignments))
	// Restore the masks' all-false invariant at O(batch).
	for _, a := range res.Assignments {
		remove[a.TaskIndex] = false
		taken[a.PEIndex] = false
	}
	// The batch is fully applied; recycle its buffer. Error paths above
	// leave the buffer to the garbage collector — the emulation is
	// aborting anyway.
	sched.ReleaseResult(&res)
	return true, nil
}

// dispatch starts a task on a PE: functional execution against the
// instance memory plus the duration model of the resource manager
// (Figure 4): direct execution on cores, DMA-in / compute / DMA-out on
// accelerators with host-core contention.
func (e *Emulator) dispatch(t *Task, h *ResourceHandler, now vtime.Time) error {
	ci := t.node.choiceByType[h.typeIdx]
	if ci < 0 {
		return fmt.Errorf("core: dispatch of %s to unsupported PE %s", t.Label(), h.PE.Label())
	}
	plat := &t.node.spec.Platforms[ci]

	var measuredNS int64
	if !e.opts.SkipExecution && !t.executed {
		f := t.node.funcs[ci]
		ctx := &kernels.Context{Mem: t.App.Mem, Args: t.node.spec.Arguments, Node: t.node.name}
		//repolint:allow novtime TimingMeasured mode deliberately measures real kernel wall time; modeled-timing runs never read this
		start := time.Now()
		if err := f(ctx); err != nil {
			return fmt.Errorf("core: task %s failed on %s: %w", t.Label(), h.PE.Label(), err)
		}
		//repolint:allow novtime paired with the TimingMeasured wall-clock read above
		measuredNS = time.Since(start).Nanoseconds()
		// A fault can requeue and re-dispatch this task; its kernel has
		// now run against the instance memory and must not run twice.
		t.executed = true
	}

	dur, busy := e.taskDuration(t, h, plat, measuredNS)
	t.choice = ci
	t.busyDur = busy
	t.start = now
	t.end = now.Add(dur)
	h.current = t
	h.status = StatusRun
	h.busyUntil = t.end
	e.view.MarkBusy(int(h.idx))
	e.view.SetAvail(int(h.idx), t.end)
	e.pushEvent(t.end, h.idx)
	return nil
}

// taskDuration applies the timing model. It returns the task's total
// occupancy of the PE slot and the portion that counts as PE "usage"
// for utilisation statistics: for CPU cores the two coincide, but an
// accelerator is only in use while computing and streaming data — the
// host-side DMA setup and manager-thread contention leave the IP idle,
// which is why the paper's Figure 9b shows FFT accelerator utilisation
// far below CPU utilisation.
func (e *Emulator) taskDuration(t *Task, h *ResourceHandler, plat *appmodel.PlatformSpec, measuredNS int64) (total, busy vtime.Duration) {
	var base, used float64
	switch h.PE.Type.Class {
	case platform.CPU:
		cost := float64(plat.CostNS)
		if e.opts.Timing == Measured && measuredNS > 0 {
			cost = float64(measuredNS)
		}
		base = cost * h.speed
		used = base
	case platform.Accelerator:
		compute := float64(plat.ComputeNS)
		if compute == 0 {
			compute = float64(plat.CostNS)
		}
		if e.opts.Timing == Measured && measuredNS > 0 {
			compute = float64(measuredNS) * measuredAccelComputeFactor
		}
		bytes := t.node.dataBytes
		xfer := e.opts.Config.DMA.TransferNS(bytes, h.PE.Share) * 2
		base = compute + xfer
		stream := 2 * float64(bytes) * e.opts.Config.DMA.NSPerByte
		used = compute + stream
	}
	if base < 1 {
		base = 1
	}
	if used > base {
		used = base
	}
	total = e.jitter.Scale(vtime.Duration(base))
	// Scale the busy share proportionally with the jitter.
	busy = vtime.Duration(float64(total) * used / base)
	return total, busy
}

// completeTask finalises the task on handler h at virtual time now:
// records statistics, decrements successors' predecessor counts, and
// appends newly-ready tasks to the ready list.
func (e *Emulator) completeTask(h *ResourceHandler, now vtime.Time) {
	t := h.current
	h.current = nil
	h.busyNS += int64(t.busyDur)
	h.tasks++

	rec := stats.TaskRecord{
		App:      t.App.Spec.AppName,
		Instance: t.App.Index,
		Node:     t.node.name,
		PEID:     h.PE.ID,
		PELabel:  h.PE.Label(),
		Platform: t.assignedKey(),
		Ready:    t.readyAt,
		Start:    t.start,
		End:      t.end,
	}
	if sink := e.opts.Sink; sink != nil {
		sink.RecordTask(rec)
	} else {
		e.report.Tasks = append(e.report.Tasks, rec)
	}

	inst := t.App
	inst.remaining--
	if inst.remaining == 0 {
		inst.done = now
		app := stats.AppRecord{
			App:      inst.Spec.AppName,
			Instance: inst.Index,
			Arrival:  inst.Arrival,
			Injected: inst.injected,
			Done:     now,
			Tasks:    len(inst.Tasks),
		}
		if sink := e.opts.Sink; sink != nil {
			sink.RecordApp(app)
		} else {
			e.report.Apps = append(e.report.Apps, app)
		}
		if e.src != nil {
			// Streamed runs recycle the finished instance: every task
			// is complete, so no live pointer into its slab remains.
			inst.Mem = nil
			if e.freeInst == nil {
				e.freeInst = make(map[*Program][]*AppInstance)
			}
			e.freeInst[inst.prog] = append(e.freeInst[inst.prog], inst)
		}
	}
	for _, sid := range t.node.succs {
		st := &inst.Tasks[sid]
		st.remainingPreds--
		if st.remainingPreds == 0 {
			st.readyAt = now
			e.pushReady(st)
		}
	}
}

// Handlers exposes the resource handlers for tests.
func (e *Emulator) Handlers() []*ResourceHandler { return e.handlers }

// Instances exposes the instantiated applications of the last Run so
// callers can inspect final variable memory (functional verification).
// The instances are backed by the emulator's Scratch: they stay valid
// until the next Run against the same Scratch (for the default private
// scratch, until this emulator's next Run).
//
// After RunStream there is nothing to expose — completed instances are
// recycled through free lists — so calling Instances then panics
// instead of silently returning an empty slice (the trap that used to
// make streamed functional checks vacuously pass).
func (e *Emulator) Instances() []*AppInstance {
	if e.streamed {
		panic("core: Instances() after RunStream: streamed instances are recycled; " +
			"inspect memory with Run, or collect records through a stats.Sink")
	}
	return e.instances
}
