package main

// Per-layer attribution from outside the program: wrappers around the
// public boundaries the emulator calls through (sched.Policy,
// stats.Sink, core.ArrivalSource, the kernel registry), folded into
// per-layer totals and counts, plus an in-memory span log with one
// span per emulation run, artefact and daemon request.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// layerClock is one layer's busy time and call count.
type layerClock struct {
	ns    int64
	calls int64
}

func (c *layerClock) add(start time.Time) {
	c.ns += int64(time.Since(start))
	c.calls++
}

func (c *layerClock) seconds() float64 { return float64(c.ns) / 1e9 }

// nsPer is ns per call, 0 when the layer was never entered.
func (c *layerClock) nsPer() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.calls)
}

// policyProbe times a wrapped policy and counts its decisions.
type policyProbe struct {
	clock    layerClock
	ops      int64
	assigned int64
	empty    int64
}

func (p *policyProbe) note(start time.Time, res sched.Result) sched.Result {
	p.clock.add(start)
	p.ops += int64(res.Ops)
	p.assigned += int64(len(res.Assignments))
	if len(res.Assignments) == 0 {
		p.empty++
	}
	return res
}

type timedPolicy struct {
	p     sched.Policy
	probe *policyProbe
}

func (w *timedPolicy) Name() string     { return w.p.Name() }
func (w *timedPolicy) UsesQueues() bool { return w.p.UsesQueues() }
func (w *timedPolicy) Schedule(now vtime.Time, ready []sched.Task, pes []sched.PE) sched.Result {
	start := time.Now()
	return w.probe.note(start, w.p.Schedule(now, ready, pes))
}

type timedIndexed struct {
	*timedPolicy
	ip sched.IndexedPolicy
}

func (w timedIndexed) ScheduleIndexed(now vtime.Time, v *sched.View) sched.Result {
	start := time.Now()
	return w.probe.note(start, w.ip.ScheduleIndexed(now, v))
}

type resetFwd struct{ r sched.Resettable }

func (f resetFwd) Reset() { f.r.Reset() }

type capFwd struct{ c sched.PowerCapped }

func (f capFwd) SetPowerCap(watts float64) { f.c.SetPowerCap(watts) }

// wrapPolicy returns a timing wrapper exposing exactly the optional
// interfaces p implements: ScheduleIndexed only for an indexed policy
// (otherwise the emulator would be steered onto a different scheduler
// path than the one being measured), Reset and SetPowerCap only when p
// has them.
func wrapPolicy(p sched.Policy, probe *policyProbe) sched.Policy {
	base := &timedPolicy{p: p, probe: probe}
	r, hasReset := p.(sched.Resettable)
	c, hasCap := p.(sched.PowerCapped)
	if ip, ok := p.(sched.IndexedPolicy); ok {
		w := timedIndexed{base, ip}
		switch {
		case hasReset && hasCap:
			return struct {
				timedIndexed
				resetFwd
				capFwd
			}{w, resetFwd{r}, capFwd{c}}
		case hasReset:
			return struct {
				timedIndexed
				resetFwd
			}{w, resetFwd{r}}
		case hasCap:
			return struct {
				timedIndexed
				capFwd
			}{w, capFwd{c}}
		}
		return w
	}
	switch {
	case hasReset && hasCap:
		return struct {
			*timedPolicy
			resetFwd
			capFwd
		}{base, resetFwd{r}, capFwd{c}}
	case hasReset:
		return struct {
			*timedPolicy
			resetFwd
		}{base, resetFwd{r}}
	case hasCap:
		return struct {
			*timedPolicy
			capFwd
		}{base, capFwd{c}}
	}
	return base
}

// timedSink times every record handed to the wrapped sink.
type timedSink struct {
	s     stats.Sink
	clock layerClock
}

func (t *timedSink) RecordTask(r stats.TaskRecord) {
	start := time.Now()
	t.s.RecordTask(r)
	t.clock.add(start)
}

func (t *timedSink) RecordApp(r stats.AppRecord) {
	start := time.Now()
	t.s.RecordApp(r)
	t.clock.add(start)
}

// timedSource times every pull from the wrapped arrival source; calls
// counts pulls, arrivals the ones that yielded an arrival.
type timedSource struct {
	src      core.ArrivalSource
	clock    layerClock
	arrivals int64
}

func (t *timedSource) Next() (core.Arrival, bool) {
	start := time.Now()
	a, ok := t.src.Next()
	t.clock.add(start)
	if ok {
		t.arrivals++
	}
	return a, ok
}

// timingRegistry rebuilds reg with every symbol wrapped in a timer
// that adds to clock. The registry must serve one emulation at a time:
// the clock is not synchronised.
func timingRegistry(reg *kernels.Registry, clock *layerClock) (*kernels.Registry, error) {
	out := kernels.NewRegistry()
	for _, sym := range reg.Symbols() {
		so, fn, ok := splitSymbol(sym)
		if !ok {
			return nil, fmt.Errorf("kernel symbol %q has no shared-object part", sym)
		}
		f, err := reg.Lookup(so, fn)
		if err != nil {
			return nil, err
		}
		if err := out.Register(so, fn, func(ctx *kernels.Context) error {
			start := time.Now()
			err := f(ctx)
			clock.add(start)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitSymbol undoes Registry.Symbols' "sharedObject/runFunc" join,
// which replaces the first separator.
func splitSymbol(sym string) (so, fn string, ok bool) {
	for i := 0; i < len(sym); i++ {
		if sym[i] == '/' {
			return sym[:i], sym[i+1:], true
		}
	}
	return "", "", false
}

// gcDelta is the Go runtime's GC and allocation work over an interval.
type gcDelta struct {
	cycles  float64
	pauseS  float64
	allocMB float64
	allocs  float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memDelta(a, b runtime.MemStats) gcDelta {
	return gcDelta{
		cycles:  float64(b.NumGC - a.NumGC),
		pauseS:  float64(b.PauseTotalNs-a.PauseTotalNs) / 1e9,
		allocMB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		allocs:  float64(b.Mallocs - a.Mallocs),
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuUtil is CPU time over the wall time all GOMAXPROCS could give.
func cpuUtil(cpu, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
}

// span is one traced interval; spans of one daemon request share ID.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written once, at exit.
// Times are offsets from the log's origin.
type spanLog struct {
	origin time.Time
	spans  []span
	nextID int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its ID. A nil log records nothing.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.nextID++
	l.spans = append(l.spans, span{
		Name: name, ID: l.nextID, Parent: parent,
		StartNS: int64(start.Sub(l.origin)), EndNS: int64(end.Sub(l.origin)),
	})
	return l.nextID
}

// addChild records a span sharing its parent's ID (one request's
// phases).
func (l *spanLog) addChild(name string, id int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: id,
		StartNS: int64(start.Sub(l.origin)), EndNS: int64(end.Sub(l.origin)),
	})
}

func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-th quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
