// Package stats collects and summarises the scheduling statistics the
// framework gathers before termination: per-task timing records,
// per-PE utilisation, scheduling overhead, application response times,
// and the aggregate descriptive statistics (box plots, means) the
// paper's figures are built from.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/vtime"
)

// TaskRecord is the measurement of a single executed task.
type TaskRecord struct {
	App      string
	Instance int
	Node     string
	PEID     int
	PELabel  string
	Platform string // platform key the task ran on ("cpu", "fft")
	Ready    vtime.Time
	Start    vtime.Time
	End      vtime.Time
}

// Duration is the task's execution span.
func (r TaskRecord) Duration() vtime.Duration { return r.End.Sub(r.Start) }

// WaitTime is how long the task sat in the ready list.
func (r TaskRecord) WaitTime() vtime.Duration { return r.Start.Sub(r.Ready) }

// AppRecord tracks one application instance end to end.
type AppRecord struct {
	App      string
	Instance int
	Arrival  vtime.Time
	Injected vtime.Time
	Done     vtime.Time
	Tasks    int
}

// ResponseTime is the arrival-to-completion latency.
func (r AppRecord) ResponseTime() vtime.Duration { return r.Done.Sub(r.Arrival) }

// SchedStats aggregates workload-manager overhead: the time spent
// monitoring completion status, updating the ready queue, running the
// scheduling algorithm, and communicating tasks to resource managers
// (the paper's Figure 10b definition).
type SchedStats struct {
	Invocations  int
	TotalOps     int64
	OverheadNS   int64
	MaxReadyLen  int
	TotalReadyLn int64 // summed ready-list lengths, for the mean
}

// AvgOverheadNS is the mean overhead per scheduler invocation.
func (s SchedStats) AvgOverheadNS() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return float64(s.OverheadNS) / float64(s.Invocations)
}

// AvgReadyLen is the mean ready-list length per invocation.
func (s SchedStats) AvgReadyLen() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return float64(s.TotalReadyLn) / float64(s.Invocations)
}

// PEStats accumulates per-PE usage.
type PEStats struct {
	PEID    int
	Label   string
	BusyNS  int64
	Tasks   int
	EnergyJ float64
}

// Report is the full statistics bundle one emulation run produces.
type Report struct {
	ConfigName string
	PolicyName string
	// SchedulerPath names the scheduling machinery the run used
	// ("indexed" or "slice" — the core package's SchedulerPath*
	// constants). It is host-side provenance, not
	// modelled behaviour: the emulated results are byte-identical
	// across paths, so parity comparisons ignore it. omitempty keeps
	// pre-existing fixture documents (which predate the field) valid.
	SchedulerPath string `json:",omitempty"`
	Makespan      vtime.Duration
	// PlatEvents counts dynamic-platform events (faults, restores, DVFS
	// steps, power caps) applied during the run; Requeues counts tasks
	// returned to the ready list by PE faults (in-flight and reserved).
	// Both are zero — and absent from JSON, keeping pre-existing fixture
	// documents byte-identical — on static runs.
	PlatEvents int64 `json:",omitempty"`
	Requeues   int64 `json:",omitempty"`
	Tasks      []TaskRecord
	Apps       []AppRecord
	PEs        []PEStats
	Sched      SchedStats
}

// Utilization returns the busy fraction of a PE over the makespan, the
// quantity of Figure 9b.
func (r *Report) Utilization(peID int) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	for _, pe := range r.PEs {
		if pe.PEID == peID {
			return float64(pe.BusyNS) / float64(r.Makespan)
		}
	}
	return 0
}

// TotalEnergyJ sums PE energy over the run.
func (r *Report) TotalEnergyJ() float64 {
	var e float64
	for _, pe := range r.PEs {
		e += pe.EnergyJ
	}
	return e
}

// AppResponse returns mean response time per application name.
func (r *Report) AppResponse() map[string]vtime.Duration {
	sums := map[string]int64{}
	counts := map[string]int64{}
	for _, a := range r.Apps {
		sums[a.App] += int64(a.ResponseTime())
		counts[a.App]++
	}
	out := make(map[string]vtime.Duration, len(sums))
	for k, s := range sums {
		out[k] = vtime.Duration(s / counts[k])
	}
	return out
}

// Summary renders a human-readable digest, the framework's
// end-of-emulation statistics dump.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s policy=%s makespan=%v tasks=%d apps=%d\n",
		r.ConfigName, r.PolicyName, r.Makespan, len(r.Tasks), len(r.Apps))
	fmt.Fprintf(&b, "scheduler: %d invocations, avg overhead %.3gus, max ready %d\n",
		r.Sched.Invocations, r.Sched.AvgOverheadNS()/1e3, r.Sched.MaxReadyLen)
	for _, pe := range r.PEs {
		util := 0.0
		if r.Makespan > 0 {
			util = float64(pe.BusyNS) / float64(r.Makespan) * 100
		}
		fmt.Fprintf(&b, "  %-12s %4d tasks  busy %-10v util %5.1f%%  energy %.4gJ\n",
			pe.Label, pe.Tasks, vtime.Duration(pe.BusyNS), util, pe.EnergyJ)
	}
	return b.String()
}

// --- descriptive statistics -------------------------------------------------

// Box holds the five-number summary used for the paper's Figure 9a
// box plots.
type Box struct {
	Min, Q1, Median, Q3, Max float64
}

// BoxOf computes the five-number summary of values (which it sorts in
// a copy). NaN inputs are dropped — a single NaN would otherwise
// poison the sorted quantile lookup — and an input that is empty (or
// all-NaN) yields a zero Box.
func BoxOf(values []float64) Box {
	v := make([]float64, 0, len(values))
	for _, x := range values {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return Box{}
	}
	sort.Float64s(v)
	return Box{
		Min:    v[0],
		Q1:     quantile(v, 0.25),
		Median: quantile(v, 0.5),
		Q3:     quantile(v, 0.75),
		Max:    v[len(v)-1],
	}
}

// quantile interpolates the q-th quantile of sorted, NaN-free v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	if len(v) == 1 {
		return v[0]
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(v) {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, x := range values {
		s += x
	}
	return s / float64(len(values))
}

// String renders the box compactly.
func (b Box) String() string {
	return fmt.Sprintf("[%.4g | %.4g %.4g %.4g | %.4g]", b.Min, b.Q1, b.Median, b.Q3, b.Max)
}
