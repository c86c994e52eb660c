package sched

import (
	"math/rand"
	"testing"

	"repro/internal/vtime"
)

// Saturated-window coverage of the early exit EFT, RANDOM and EFT-POWER
// take once a call's idle snapshot is empty: the suffix of the window
// is charged without being walked, in closed form when every class is
// live and no window entry is unplaceable, and by a per-task loop
// otherwise. Each case runs on a window of over 2000 tasks against the
// slice Schedule, which walks every task.

// faultyPE is a fake that reports fault status, the way the emulation
// core's PE views do: a faulted PE is also not idle.
type faultyPE struct {
	fakePE
	faulted bool
}

func (p *faultyPE) Faulted() bool { return p.faulted }

// The saturated pool is 4BIG+3LTL plus one FFT accelerator (PE fftPE):
// two cost classes under the "cpu" type and one "fft" class, so
// dual-platform tasks list three classes and FFT-only tasks list one.
const (
	fftPE      = 7
	numSatPEs  = 8
	satWindow  = 2048
	satTaskMix = 3 // cpu-only, dual, fft-only
)

// saturatedScenario is one saturated scheduling state, built into both
// the fakes the slice path reads and the View the fast path reads.
type saturatedScenario struct {
	now   vtime.Time
	fakes []*faultyPE
	pes   []PE
	tasks []Task
	v     *View
}

// newSaturatedScenario builds the pool with nIdle idle PEs (LITTLE 4,
// then big 0) and every other PE busy until a random instant after
// now. The window is built by pushTasks.
func newSaturatedScenario(t testing.TB, rng *rand.Rand, nIdle int) *saturatedScenario {
	t.Helper()
	s := &saturatedScenario{now: 10_000}
	for i := 0; i < numSatPEs; i++ {
		pe := &faultyPE{fakePE: fakePE{id: i, key: "cpu", speed: 1, power: 2}}
		switch {
		case i >= 4 && i < fftPE:
			pe.speed, pe.power = 2.5, 0.5
		case i == fftPE:
			pe.key, pe.power = "fft", 0.3
		}
		pe.avail = s.now + 1 + vtime.Time(rng.Intn(5000))
		s.fakes = append(s.fakes, pe)
		s.pes = append(s.pes, pe)
	}
	for _, i := range []int{4, 0}[:nIdle] {
		s.fakes[i].idle = true
		s.fakes[i].avail = s.now - vtime.Time(rng.Intn(100))
	}
	s.v = NewView(s.pes)
	if s.v == nil {
		t.Fatal("NewView rejected the 4BIG+3LTL pool")
	}
	s.applyLiveState()
	return s
}

// applyLiveState mirrors the fakes' busy status and availability into
// the View, as the emulator maintains them.
func (s *saturatedScenario) applyLiveState() {
	for i, f := range s.fakes {
		if !f.idle {
			s.v.MarkBusy(i)
			s.v.AddLoad(i, 1)
		}
		s.v.SetAvail(i, f.avail)
	}
}

// pushTasks appends n tasks cycling through the task mix; with
// unplaceableEvery > 0, every such task instead supports only a
// platform absent from the configuration (an empty class list).
func (s *saturatedScenario) pushTasks(rng *rand.Rand, n, unplaceableEvery int) {
	for i := 0; i < n; i++ {
		cost := int64(rng.Intn(2000) + 1)
		var tk *fakeTask
		switch {
		case unplaceableEvery > 0 && i%unplaceableEvery == unplaceableEvery-1:
			tk = &fakeTask{label: "g", choices: []PlatformChoice{{Key: "gpu", TypeID: -1, CostNS: cost}}}
		case i%satTaskMix == 0:
			tk = cpuTask("c", cost)
		case i%satTaskMix == 1:
			tk = dualTask("d", cost, int64(rng.Intn(500)+1))
		default:
			tk = &fakeTask{label: "f", choices: []PlatformChoice{{Key: "fft", TypeID: typeID("fft"), CostNS: cost}}}
		}
		m := s.v.MetaFor(tk.Choices())
		s.v.PushReady(tk, &m)
		s.tasks = append(s.tasks, tk)
	}
}

// saturatedCase is one scenario shape; closed reports whether the EFT
// suffix may take the closed form.
type saturatedCase struct {
	name   string
	s      *saturatedScenario
	closed bool
}

// saturatedCases builds every scenario shape at one idle count.
func saturatedCases(t *testing.T, seed int64, nIdle int) []saturatedCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []saturatedCase

	live := newSaturatedScenario(t, rng, nIdle)
	live.pushTasks(rng, satWindow, 0)
	out = append(out, saturatedCase{"all-live", live, true})

	// The FFT accelerator dies: its class empties, and FFT-only tasks
	// have no tentative-wait target left.
	fault := newSaturatedScenario(t, rng, nIdle)
	fault.fakes[fftPE].faulted = true
	fault.v.FaultPE(fftPE)
	fault.pushTasks(rng, satWindow, 0)
	out = append(out, saturatedCase{"fault", fault, false})

	// DVFS moves the accelerator to a new signature: the original FFT
	// class is left with no member.
	migrate := newSaturatedScenario(t, rng, nIdle)
	ci := migrate.v.InternClass(int32(typeID("fft")), 0.8, 0.3)
	migrate.v.SetClass(fftPE, ci)
	migrate.fakes[fftPE].speed = 0.8
	migrate.pushTasks(rng, satWindow, 0)
	out = append(out, saturatedCase{"setclass", migrate, false})

	unplaceable := newSaturatedScenario(t, rng, nIdle)
	unplaceable.pushTasks(rng, satWindow, 7)
	out = append(out, saturatedCase{"empty-classes", unplaceable, false})

	// Unplaceable tasks pushed, then a Reset: the count must clear and
	// the closed form come back.
	reset := newSaturatedScenario(t, rng, nIdle)
	reset.pushTasks(rng, 64, 2)
	reset.v.Reset()
	reset.tasks = nil
	reset.applyLiveState()
	reset.pushTasks(rng, satWindow, 0)
	out = append(out, saturatedCase{"reset", reset, true})
	return out
}

// TestSaturatedIndexedMatchesSlice pins the early exit's exactness: on
// saturated windows with 0, 1 and 2 idle PEs, under faults, DVFS
// re-classing, unplaceable tasks and after a Reset, EFT, RANDOM and
// EFT-POWER (uncapped and capped) return the slice path's Ops and
// assignments, and RANDOM leaves its generator where the slice path
// does.
func TestSaturatedIndexedMatchesSlice(t *testing.T) {
	for nIdle := 0; nIdle <= 2; nIdle++ {
		for _, c := range saturatedCases(t, int64(100+nIdle), nIdle) {
			s := c.s
			if got := s.v.noClassTasks == 0 && s.v.allClassesLive(); got != c.closed {
				t.Fatalf("%s/idle=%d: closed-form guard %v, want %v", c.name, nIdle, got, c.closed)
			}
			if s.v.ReadyLen() < 2000 {
				t.Fatalf("%s/idle=%d: window of %d tasks is not saturated", c.name, nIdle, s.v.ReadyLen())
			}
			for _, mk := range []func() Policy{
				func() Policy { return EFT{} },
				func() Policy { return NewRandom(int64(nIdle)) },
				func() Policy { return &PowerEFT{Slack: 1.25} },
				func() Policy { return &PowerEFT{Slack: 1.25, cap: 1} },
			} {
				pSlice, pIdx := mk(), mk()
				want := pSlice.Schedule(s.now, s.tasks, s.pes)
				got := pIdx.(IndexedPolicy).ScheduleIndexed(s.now, s.v)
				name := c.name + "/" + pSlice.Name()
				if want.Ops != got.Ops {
					t.Fatalf("%s/idle=%d: ops diverged: slice %d, indexed %d", name, nIdle, want.Ops, got.Ops)
				}
				if len(want.Assignments) != len(got.Assignments) {
					t.Fatalf("%s/idle=%d: batch diverged: slice %v, indexed %v",
						name, nIdle, want.Assignments, got.Assignments)
				}
				for i := range want.Assignments {
					if want.Assignments[i] != got.Assignments[i] {
						t.Fatalf("%s/idle=%d: assignment %d diverged: slice %+v, indexed %+v",
							name, nIdle, i, want.Assignments[i], got.Assignments[i])
					}
				}
				if r, ok := pSlice.(*Random); ok {
					if a, b := r.rng.Int63(), pIdx.(*Random).rng.Int63(); a != b {
						t.Fatalf("%s/idle=%d: generator diverged after the call: next draw %d vs %d", name, nIdle, a, b)
					}
				}
			}
		}
	}
}

// TestEFTRescanOpsClosedForm checks the closed form against the naive
// sum it replaces.
func TestEFTRescanOpsClosedForm(t *testing.T) {
	naive := 0
	for n := 0; n <= 4096; n++ {
		if got := eftRescanOps(n); got != naive {
			t.Fatalf("eftRescanOps(%d) = %d, want %d", n, got, naive)
		}
		naive += n / 32
	}
}

// BenchmarkEFTIndexedSaturated measures one EFT invocation on a
// 10k-task window with one idle PE — the saturated Odroid shape — and
// fails if the call allocates.
func BenchmarkEFTIndexedSaturated(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := newSaturatedScenario(b, rng, 1)
	s.pushTasks(rng, 10_000, 0)
	call := func() {
		res := EFT{}.ScheduleIndexed(s.now, s.v)
		ReleaseResult(&res)
	}
	call()
	if a := testing.AllocsPerRun(10, call); a != 0 {
		b.Fatalf("saturated EFT call allocates %.0f objects", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}
