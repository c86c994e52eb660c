package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/platevent"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The dynamic-platform half of the byte-determinism contract:
//
//  1. A dynamic emulator whose event schedule is empty (or whose events
//     all trail the workload) produces a report byte-identical to a
//     static emulator's — the event machinery must be invisible until
//     an event actually fires.
//  2. Under any event schedule — faults, restores, DVFS steps, power
//     caps, full blackouts, seeded churn — every built-in policy's
//     indexed fast path stays op- and assignment-identical to the
//     forced slice path, over both batch Run and RunStream.

// dynamicConfigs are the three platforms the churn experiment ranks:
// the uniform synthetic pool, the Odroid whose big.LITTLE split makes
// one type two cost classes, and the heterogeneous synthetic pool with
// three classes and accelerators.
func dynamicConfigs(t *testing.T) []namedConfig {
	t.Helper()
	syn, err := platform.Synthetic(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	od, err := platform.OdroidXU3(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	het, err := platform.SyntheticHet(8, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []namedConfig{{"synthetic", syn}, {"odroid", od}, {"het", het}}
}

// dynamicWorkload is a lighter sibling of differentialWorkload: the
// dynamic differential multiplies schedules into the matrix, so the
// trace stays at 16 bursts (~500 tasks) spanning ~176us of arrivals —
// long enough that every hand-authored event below lands mid-run.
func dynamicWorkload(t *testing.T) []Arrival {
	t.Helper()
	rd := apps.RangeDetection(apps.DefaultRangeParams())
	pd := apps.PulseDoppler(apps.DefaultDopplerParams())
	wtx := apps.WiFiTX(apps.DefaultWiFiParams())
	wrx := apps.WiFiRX(apps.DefaultWiFiParams())
	var out []Arrival
	at := vtime.Time(0)
	for i := 0; i < 16; i++ {
		out = append(out,
			Arrival{Spec: rd, At: at},
			Arrival{Spec: pd, At: at + 2_000},
			Arrival{Spec: wtx, At: at + 3_500},
			Arrival{Spec: wrx, At: at + 5_000},
		)
		at += 11_000
	}
	return out
}

// namedSchedule keeps the event regimes in declaration order, like
// namedConfig (deterministic subtest order; no map iteration).
type namedSchedule struct {
	name string
	ev   *platevent.Schedule
}

// dynamicSchedules builds the event regimes the differential pins, per
// configuration (PE indices and restored speeds depend on the layout).
func dynamicSchedules(cfg *platform.Config) []namedSchedule {
	n := len(cfg.PEs)
	us := func(x int64) vtime.Time { return vtime.Time(x * 1000) }
	var out []namedSchedule
	add := func(name string, ev *platevent.Schedule) { out = append(out, namedSchedule{name, ev}) }

	// Rolling faults with staggered restores, ending with the last PE
	// (an accelerator where the config has one) out and back.
	add("faults", platevent.New().
		FaultAt(us(25), 0).
		FaultAt(us(50), 1).
		RestoreAt(us(90), 0).
		FaultAt(us(110), n-1).
		RestoreAt(us(140), 1).
		RestoreAt(us(155), n-1))

	// DVFS steps on two PEs, returning to the calibrated factors — the
	// return migrates the PEs back into configuration classes.
	add("dvfs", platevent.New().
		SetSpeedAt(us(20), 0, 0.7).
		SetSpeedAt(us(60), n/2, 1.4).
		SetSpeedAt(us(100), 0, 1.15).
		SetSpeedAt(us(130), n/2, cfg.PEs[n/2].Type.SpeedFactor).
		SetSpeedAt(us(150), 0, cfg.PEs[0].Type.SpeedFactor))

	// Tightening power caps, lifted before the tail. 1.0W masks the
	// 1.6W big cores; 0.5W leaves only LITTLEs and accelerators.
	add("powercap", platevent.New().
		PowerCapAt(us(30), 1.0).
		PowerCapAt(us(80), 0.5).
		PowerCapAt(us(140), 0))

	// Everything at once, including same-instant pairs whose insertion
	// order is the contract (fault then restore of one PE at one T) and
	// idempotent no-ops (double fault, restore of a healthy PE).
	add("mixed", platevent.New().
		SetSpeedAt(us(15), 1, 1.3).
		FaultAt(us(40), 2%n).
		FaultAt(us(40), 2%n).
		PowerCapAt(us(55), 1.0).
		FaultAt(us(70), 0).
		RestoreAt(us(70), 0).
		RestoreAt(us(85), 2%n).
		RestoreAt(us(85), 3%n).
		SetSpeedAt(us(95), 1, cfg.PEs[1].Type.SpeedFactor).
		PowerCapAt(us(120), 0))

	// Total blackout and recovery: every PE faults at one instant (all
	// in-flight and reserved work requeues), the platform sits dark
	// with a growing ready list, then every PE returns.
	blackout := platevent.New()
	for pe := 0; pe < n; pe++ {
		blackout.FaultAt(us(65), pe)
	}
	for pe := 0; pe < n; pe++ {
		blackout.RestoreAt(us(115), pe)
	}
	add("blackout", blackout)

	// Seeded churn: the generator the experiment uses, faults capped so
	// at least one PE stays up at all times.
	add("churn", platevent.Churn(int64(n)*101+7, platevent.ChurnConfig{
		NumPEs:    n,
		Horizon:   vtime.Duration(160 * 1000),
		Events:    40,
		Speeds:    []float64{0.7, 1.4},
		PowerCaps: []float64{0, 0.5, 1.0},
	}))
	return out
}

// runDynamic is runDifferential plus an event schedule.
func runDynamic(t *testing.T, cfg *platform.Config, policy sched.Policy, trace []Arrival, ev *platevent.Schedule) *stats.Report {
	t.Helper()
	e, err := New(Options{
		Config:        cfg,
		Policy:        policy,
		Registry:      apps.Registry(),
		Seed:          42,
		JitterSigma:   0.03,
		SkipExecution: true,
		Events:        ev,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(trace)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Name, policy.Name(), err)
	}
	return rep
}

// TestZeroEventDynamicMatchesStatic pins deliverable (a): an emulator
// carrying an empty schedule — or one whose only event trails the
// entire workload and therefore never applies — produces a report
// byte-identical (JSON bytes included) to a static emulator's.
func TestZeroEventDynamicMatchesStatic(t *testing.T) {
	trace := dynamicWorkload(t)
	for _, nc := range dynamicConfigs(t) {
		cname, cfg := nc.name, nc.cfg
		for _, policyName := range sched.Names() {
			t.Run(cname+"/"+policyName, func(t *testing.T) {
				mk := func() sched.Policy {
					p, err := sched.New(policyName, 5)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				static := runDifferential(t, cfg, mk(), trace)
				empty := runDynamic(t, cfg, mk(), trace, platevent.New())
				trailing := runDynamic(t, cfg, mk(), trace, platevent.New().FaultAt(vtime.Time(3_600_000_000_000), 0))
				for _, dyn := range []*stats.Report{empty, trailing} {
					compareReports(t, static, dyn)
					if dyn.PlatEvents != 0 || dyn.Requeues != 0 {
						t.Fatalf("zero-event run reports %d events / %d requeues", dyn.PlatEvents, dyn.Requeues)
					}
				}
				wantJSON, err := json.Marshal(static)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(empty)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Fatalf("zero-event dynamic JSON diverged from static")
				}
			})
		}
	}
}

// TestIndexedMatchesSlicePathUnderEvents pins deliverable (b): every
// built-in policy stays op- and assignment-identical between the
// indexed and forced-slice paths under every dynamic regime, on all
// three churn configurations, through batch Run.
func TestIndexedMatchesSlicePathUnderEvents(t *testing.T) {
	trace := dynamicWorkload(t)
	for _, nc := range dynamicConfigs(t) {
		cname, cfg := nc.name, nc.cfg
		for _, ns := range dynamicSchedules(cfg) {
			sname, ev := ns.name, ns.ev
			for _, policyName := range sched.Names() {
				t.Run(cname+"/"+sname+"/"+policyName, func(t *testing.T) {
					indexed, err := sched.New(policyName, 5)
					if err != nil {
						t.Fatal(err)
					}
					slice, err := sched.New(policyName, 5)
					if err != nil {
						t.Fatal(err)
					}
					got := runDynamic(t, cfg, indexed, trace, ev)
					want := runDynamic(t, cfg, sched.SliceOnly(slice), trace, ev)
					compareReports(t, want, got)
					if sname != "powercap" && got.PlatEvents == 0 {
						t.Fatalf("schedule %s applied no events — the regime tested nothing", sname)
					}
				})
			}
		}
	}
}

// TestIndexedMatchesSlicePathUnderEventsStream repeats the dynamic
// differential through RunStream: instance recycling plus fault
// requeues is exactly where a stale slab pointer would surface.
func TestIndexedMatchesSlicePathUnderEventsStream(t *testing.T) {
	trace := dynamicWorkload(t)
	for _, nc := range dynamicConfigs(t) {
		cname, cfg := nc.name, nc.cfg
		for _, ns := range dynamicSchedules(cfg) {
			sname, ev := ns.name, ns.ev
			for _, policyName := range sched.Names() {
				t.Run(cname+"/"+sname+"/"+policyName, func(t *testing.T) {
					run := func(p sched.Policy) *stats.Report {
						e, err := New(Options{
							Config: cfg, Policy: p, Registry: apps.Registry(),
							Seed: 9, SkipExecution: true, Events: ev,
						})
						if err != nil {
							t.Fatal(err)
						}
						rep, err := e.RunStream(&sliceSource{arr: trace})
						if err != nil {
							t.Fatalf("%s/%s: %v", cfg.Name, p.Name(), err)
						}
						return rep
					}
					indexed, _ := sched.New(policyName, 3)
					slice, _ := sched.New(policyName, 3)
					got := run(indexed)
					want := run(sched.SliceOnly(slice))
					compareReports(t, want, got)
				})
			}
		}
	}
}

// TestManyDVFSClassesRunIndexed is the regression test for DVFS-heavy
// schedules: 72 distinct SetSpeedAt speeds on ZCU102 intern well past
// 64 cost classes. The emulator must stay on the indexed path, push
// metadata re-lowered against the view's extended class table
// (dynMeta), and produce reports byte-identical to the same schedule
// under sched.SliceOnly, for every built-in policy.
func TestManyDVFSClassesRunIndexed(t *testing.T) {
	cfg := zcu(t, 3, 2)
	n := len(cfg.PEs)
	const steps = 72
	ev := platevent.New()
	for i := 0; i < steps; i++ {
		ev.SetSpeedAt(vtime.Time(1_000+1_000*i), i%n, 0.5+0.02*float64(i))
	}
	// The first half of the dynamic trace (~80us of arrivals) keeps the
	// three-core board's ready window, and the slice oracle's scans of
	// it, short while every step still lands mid-run.
	trace := dynamicWorkload(t)[:32]
	for _, policyName := range sched.Names() {
		t.Run(policyName, func(t *testing.T) {
			run := func(p sched.Policy, wantPath string) *stats.Report {
				e, err := New(Options{
					Config: cfg, Policy: p, Registry: apps.Registry(),
					Seed: 42, JitterSigma: 0.03, SkipExecution: true, Events: ev,
				})
				if err != nil {
					t.Fatal(err)
				}
				if e.SchedulerPath() != wantPath {
					t.Fatalf("SchedulerPath = %q, want %q", e.SchedulerPath(), wantPath)
				}
				if e.view.NumClasses() <= 64 {
					t.Fatalf("schedule interned only %d classes", e.view.NumClasses())
				}
				rep, err := e.Run(trace)
				if err != nil {
					t.Fatal(err)
				}
				if len(e.dynMeta) == 0 {
					t.Fatal("no metadata was re-lowered for the DVFS classes")
				}
				if rep.SchedulerPath != wantPath || rep.PlatEvents != steps {
					t.Fatalf("report path %q with %d events, want %q with %d",
						rep.SchedulerPath, rep.PlatEvents, wantPath, steps)
				}
				return rep
			}
			indexed, _ := sched.New(policyName, 5)
			slice, _ := sched.New(policyName, 5)
			got := run(indexed, SchedulerPathIndexed)
			want := run(sched.SliceOnly(slice), SchedulerPathSlice)
			compareReports(t, want, got)
			// SchedulerPath is provenance, the one field allowed to differ.
			got.SchedulerPath, want.SchedulerPath = "", ""
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatal("indexed report JSON diverged from the SliceOnly run")
			}
		})
	}
}

// fuzzSpeeds and fuzzCaps are the ladders FuzzEventSchedule draws from:
// a handful of values keeps the interned class count small while still
// exercising re-interning and caps that mask none, some, or all CPU
// classes.
var (
	fuzzSpeeds = [...]float64{0.5, 0.8, 1.2, 1.9}
	fuzzCaps   = [...]float64{0, 0.3, 0.5, 1.0, 1.7}
)

// scheduleFromBytes decodes a fuzz payload into a valid schedule: six
// bytes per event (kind, PE, 16-bit instant, speed index, cap index),
// capped at 64 events to bound the emulation count per input.
func scheduleFromBytes(data []byte, numPEs int) *platevent.Schedule {
	s := platevent.New()
	for i := 0; i+6 <= len(data) && s.Len() < 64; i += 6 {
		b := data[i : i+6]
		at := vtime.Time(int64(binary.LittleEndian.Uint16(b[2:4])) * 40)
		pe := int(b[1]) % numPEs
		switch b[0] % 4 {
		case 0:
			s.FaultAt(at, pe)
		case 1:
			s.RestoreAt(at, pe)
		case 2:
			s.SetSpeedAt(at, pe, fuzzSpeeds[int(b[4])%len(fuzzSpeeds)])
		case 3:
			s.PowerCapAt(at, fuzzCaps[int(b[5])%len(fuzzCaps)])
		}
	}
	return s
}

// FuzzEventSchedule drives both scheduling paths under arbitrary event
// schedules — including platform blackouts with no recovery, which
// must surface as the deterministic stranded-tasks error, never a
// panic or a hang — and requires the two paths to agree byte-for-byte
// on the outcome, error or report.
func FuzzEventSchedule(f *testing.F) {
	cfg, err := platform.SyntheticHet(3, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	rd := apps.RangeDetection(apps.DefaultRangeParams())
	wtx := apps.WiFiTX(apps.DefaultWiFiParams())
	pd := apps.PulseDoppler(apps.DefaultDopplerParams())
	trace := []Arrival{
		{Spec: rd, At: 0},
		{Spec: wtx, At: 2_000},
		{Spec: pd, At: 5_000},
		{Spec: rd, At: 40_000},
		{Spec: wtx, At: 70_000},
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0x10, 0, 0, 0, 1, 0, 0x40, 0, 0, 0})                      // fault PE0, restore PE0
	f.Add([]byte{0, 0, 0x10, 0, 0, 0, 0, 1, 0x11, 0, 0, 0, 0, 2, 0x12, 0, 0, 0}) // creeping blackout
	f.Add([]byte{2, 1, 0x20, 0, 1, 0, 3, 0, 0x30, 0, 0, 2, 3, 0, 0x60, 0, 0, 0}) // dvfs + caps
	f.Fuzz(func(t *testing.T, data []byte) {
		ev := scheduleFromBytes(data, len(cfg.PEs))
		if err := ev.Validate(len(cfg.PEs)); err != nil {
			t.Fatalf("generated schedule invalid: %v", err)
		}
		run := func(p sched.Policy) (*stats.Report, error) {
			e, err := New(Options{
				Config: cfg, Policy: p, Registry: apps.Registry(),
				Seed: 11, SkipExecution: true, Events: ev,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e.Run(trace)
		}
		for _, policyName := range sched.Names() {
			indexed, err := sched.New(policyName, 7)
			if err != nil {
				t.Fatal(err)
			}
			slice, err := sched.New(policyName, 7)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := run(indexed)
			want, wantErr := run(sched.SliceOnly(slice))
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: paths disagree on failure: indexed=%v slice=%v", policyName, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: error text diverged:\nindexed: %v\nslice:   %v", policyName, gotErr, wantErr)
				}
				continue
			}
			compareReports(t, want, got)
		}
	})
}
