package main

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// TestWrapPolicyKeepsInterfaces: the timing wrapper implements exactly
// the optional interfaces the wrapped policy does, so tracing never
// moves a run onto another scheduler path or drops a Reset/power cap.
func TestWrapPolicyKeepsInterfaces(t *testing.T) {
	for _, name := range sched.Names() {
		p, err := sched.New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []sched.Policy{p, sched.SliceOnly(p)} {
			w := wrapPolicy(pol, &policyProbe{})
			_, ip := pol.(sched.IndexedPolicy)
			_, wip := w.(sched.IndexedPolicy)
			_, rs := pol.(sched.Resettable)
			_, wrs := w.(sched.Resettable)
			_, pc := pol.(sched.PowerCapped)
			_, wpc := w.(sched.PowerCapped)
			if ip != wip || rs != wrs || pc != wpc {
				t.Errorf("%s (%T): indexed/reset/powercap %v/%v/%v, wrapper %v/%v/%v",
					name, pol, ip, rs, pc, wip, wrs, wpc)
			}
			if w.Name() != pol.Name() || w.UsesQueues() != pol.UsesQueues() {
				t.Errorf("%s: wrapper changes Name or UsesQueues", name)
			}
		}
	}
}

// TestTracedRunMatchesUntraced runs a small instance of each emulation
// workload untraced and traced: both must take the indexed scheduler
// path and produce the same digest, and the traced policy must be
// called once per invocation.
func TestTracedRunMatchesUntraced(t *testing.T) {
	small := map[string]emuWorkload{"manype-frfs": manyPE, "odroid-eft": odroidEFT}
	for name, w := range small {
		w.frame, w.streams = 20*vtime.Millisecond, 1
		st, err := setupEmulation(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		scratch := core.NewScratch()
		plain, err := st.emulate(0, scratch, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := st.emulate(0, scratch, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []*emuOp{plain, traced} {
			if op.path != core.SchedulerPathIndexed {
				t.Errorf("%s: scheduler path %q", name, op.path)
			}
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s != untraced %s", name, traced.digest, plain.digest)
		}
		if plain.tasks == 0 || plain.tasks != traced.tasks {
			t.Errorf("%s: tasks %d untraced, %d traced", name, plain.tasks, traced.tasks)
		}
		if got, want := traced.policy.clock.calls, int64(traced.sched.Invocations); got != want || got == 0 {
			t.Errorf("%s: policy calls %d, invocations %d", name, got, want)
		}
		if w.stream && (traced.sink.calls == 0 || traced.arr == 0) {
			t.Errorf("%s: stream run recorded %d sink calls, %d arrivals", name, traced.sink.calls, traced.arr)
		}
	}
}

// TestBenchmarkJSONWorkloads: BENCHMARK.json names exactly the
// workloads this program runs. (The program reads its metric names and
// units from the file.)
func TestBenchmarkJSONWorkloads(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Fatalf("workloads %v, program has %v", names, want)
	}
}
