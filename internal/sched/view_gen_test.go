package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vtime"
)

// Generated ReadyMeta shapes: a scenario generator that steers the
// compiled-metadata space the corpus differential can only sample —
// class-list corners (one class, every class, the last class of a
// table past 64 classes), single-choice nodes, choices on absent
// platforms, and multi-class single-type pools — plugged into the same 400-trial
// Schedule-vs-ScheduleIndexed parity harness as the random scenarios.

// genPE is a fake PE whose type identity is fully generator-chosen:
// key "t<N>" always interns as TypeID N, so pools with any number of
// distinct types (not just the cpu/fft pair) can be built.
type genPE struct {
	fakePE
	typ int
}

func (p *genPE) TypeKey() string { return fmt.Sprintf("t%d", p.typ) }
func (p *genPE) TypeID() int     { return p.typ }

// genMetaScenario draws one emulator-consistent state from the shape
// space. nTypes controls the interned type count; classed=true gives
// every PE its own speed, splitting each type into per-PE cost classes
// (the big.LITTLE shape); the task mix hits the class-list corners.
func genMetaScenario(rng *rand.Rand, now vtime.Time, nTypes int, classed bool) ([]PE, []Task) {
	nPE := nTypes + rng.Intn(2*nTypes)
	pes := make([]PE, nPE)
	for i := range pes {
		pe := &genPE{typ: i % nTypes} // every type represented
		pe.id = i
		pe.speed = 1
		pe.power = 0.5 + float64(pe.typ%5)/10
		if classed {
			pe.speed = 1 + float64(i)/64
		}
		// Emulator invariants: idle PEs have drained queues and
		// availability at or below now; busy PEs complete after now.
		if rng.Intn(3) == 0 {
			pe.idle = false
			pe.queued = rng.Intn(3)
			pe.avail = now + 1 + vtime.Time(rng.Intn(2000))
		} else {
			pe.idle = true
			pe.avail = now - vtime.Time(rng.Intn(500))
		}
		pes[i] = pe
	}
	choice := func(typ int) PlatformChoice {
		return PlatformChoice{
			Key:    fmt.Sprintf("t%d", typ),
			TypeID: typ,
			CostNS: int64(rng.Intn(1000) + 1),
		}
	}
	nTasks := 1 + rng.Intn(10)
	tasks := make([]Task, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		tk := &fakeTask{label: fmt.Sprintf("g%d", i)}
		switch rng.Intn(5) {
		case 0:
			// Single-choice node on the LAST type: the last class of
			// the table, past index 63 on the wide pools.
			tk.choices = []PlatformChoice{choice(nTypes - 1)}
		case 1:
			// Single-choice node on a random type: a one-class list.
			tk.choices = []PlatformChoice{choice(rng.Intn(nTypes))}
		case 2:
			// Full-width node supporting every type: every class listed.
			for typ := 0; typ < nTypes; typ++ {
				tk.choices = append(tk.choices, choice(typ))
			}
		case 3:
			// Absent-platform choice first (TypeID -1): MET may elect
			// the missing minimum and hold the task; everyone else must
			// skip the dead entry.
			tk.choices = []PlatformChoice{
				{Key: "ghost", TypeID: -1, CostNS: int64(rng.Intn(50) + 1)},
				choice(rng.Intn(nTypes)),
			}
		default:
			// Random subset, ascending types, no duplicates.
			for typ := 0; typ < nTypes; typ++ {
				if rng.Intn(3) == 0 {
					tk.choices = append(tk.choices, choice(typ))
				}
			}
			if len(tk.choices) == 0 {
				tk.choices = []PlatformChoice{choice(0)}
			}
		}
		tasks = append(tasks, tk)
	}
	return pes, tasks
}

// genViewFor mirrors viewFor for generator-built []PE pools.
func genViewFor(t *testing.T, pes []PE, tasks []Task) *View {
	t.Helper()
	v := NewView(pes)
	if v == nil {
		t.Fatal("NewView failed for an eligible generated pool")
	}
	for i, pe := range pes {
		if !pe.Idle() {
			v.MarkBusy(i)
			v.AddLoad(i, 1)
		}
		v.SetAvail(i, pe.AvailableAt())
		v.AddLoad(i, pe.QueueLen())
	}
	for _, tk := range tasks {
		m := v.MetaFor(tk.Choices())
		v.PushReady(tk, &m)
	}
	return v
}

// TestIndexedMatchesSliceGeneratedMeta runs the 400-trial parity check
// over the generated shape space: type counts from 1 to past the
// 64-class mark, both the uniform (class==type) and the per-PE
// speed-classed interning. Every policy must byte-match its slice path
// on every drawn state.
func TestIndexedMatchesSliceGeneratedMeta(t *testing.T) {
	now := vtime.Time(10_000)
	// classed pools intern one class per PE (up to 3*nTypes classes).
	shapes := []struct {
		nTypes  int
		classed bool
	}{
		{1, false}, {2, false}, {3, true}, {5, false}, {8, true},
		{16, false}, {21, true}, {63, false}, {64, false},
		{65, false}, {40, true}, {130, false},
	}
	for _, name := range Names() {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 400; trial++ {
			shape := shapes[trial%len(shapes)]
			pes, tasks := genMetaScenario(rng, now, shape.nTypes, shape.classed)
			pSlice, err := New(name, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			pIdx, err := New(name, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			ip, ok := pIdx.(IndexedPolicy)
			if !ok {
				t.Fatalf("built-in policy %s lacks an indexed fast path", name)
			}
			want := pSlice.Schedule(now, tasks, pes)
			v := genViewFor(t, pes, tasks)
			got := ip.ScheduleIndexed(now, v)
			if want.Ops != got.Ops {
				t.Fatalf("%s trial %d (types %d classed %v): ops diverged: slice %d, indexed %d",
					name, trial, shape.nTypes, shape.classed, want.Ops, got.Ops)
			}
			if len(want.Assignments) != len(got.Assignments) {
				t.Fatalf("%s trial %d (types %d classed %v): batch size diverged: slice %v, indexed %v",
					name, trial, shape.nTypes, shape.classed, want.Assignments, got.Assignments)
			}
			for i := range want.Assignments {
				if want.Assignments[i] != got.Assignments[i] {
					t.Fatalf("%s trial %d (types %d classed %v): assignment %d diverged: slice %+v, indexed %+v",
						name, trial, shape.nTypes, shape.classed, i, want.Assignments[i], got.Assignments[i])
				}
			}
		}
	}
}

// TestMetaForCorners pins MetaFor's lowering on the exact corner
// shapes the generator steers toward, against hand-computed class
// lists, on a table of more than 64 classes.
func TestMetaForCorners(t *testing.T) {
	// n single-PE types: class c == type c.
	const n = 130
	pes := make([]PE, n)
	for i := range pes {
		pe := &genPE{typ: i}
		pe.id = i
		pe.speed = 1
		pe.idle = true
		pes[i] = pe
	}
	v := NewView(pes)
	if v == nil || v.NumClasses() != n {
		t.Fatalf("%d one-PE types must intern %d classes", n, n)
	}

	top := v.MetaFor([]PlatformChoice{{Key: "top", TypeID: n - 1, CostNS: 7}})
	if !slices.Equal(top.Classes, []int32{n - 1}) {
		t.Fatalf("top-type classes = %v, want [%d]", top.Classes, n-1)
	}
	if !slices.Equal(top.METClasses, []int32{n - 1}) || top.NumChoices != 1 {
		t.Fatalf("top-type meta = %+v", top)
	}
	if top.Costs[n-1] != 7 {
		t.Fatalf("top-type cost = %d, want 7", top.Costs[n-1])
	}

	var full []PlatformChoice
	var every []int32
	for i := 0; i < n; i++ {
		full = append(full, PlatformChoice{Key: fmt.Sprintf("t%d", i), TypeID: i, CostNS: int64(n - i)})
		every = append(every, int32(i))
	}
	all := v.MetaFor(full)
	if !slices.Equal(all.Classes, every) {
		t.Fatalf("full-width classes = %v, want all %d ascending", all.Classes, n)
	}
	// Cheapest choice is the last (cost 1): MET elects exactly it.
	if !slices.Equal(all.METClasses, []int32{n - 1}) {
		t.Fatalf("full-width MET classes = %v, want [%d]", all.METClasses, n-1)
	}

	// A choice on an absent platform contributes nothing; a task with
	// ONLY absent choices has no classes (waits forever), but its
	// choice count is still visible to ops accounting.
	ghost := v.MetaFor([]PlatformChoice{{Key: "ghost", TypeID: -1, CostNS: 1}})
	if len(ghost.Classes) != 0 || len(ghost.METClasses) != 0 || ghost.NumChoices != 1 {
		t.Fatalf("ghost-only meta = %+v", ghost)
	}
}
