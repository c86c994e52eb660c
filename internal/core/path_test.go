package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/vtime"
)

// speedClassedConfig hand-builds a configuration of n same-key "cpu"
// PEs with n distinct speed factors — n cost classes under a single
// interned type, the big.LITTLE shape at any width. With one PE per
// class, 65 and 130 classes also span two and three PE bitmap words.
// Hand-built Configs exercise the no-finalize fallback paths of the
// platform package on top.
func speedClassedConfig(n int) *platform.Config {
	cfg := &platform.Config{
		Name:     fmt.Sprintf("%dclass-test", n),
		Platform: "test",
		Overlay:  platform.A53,
	}
	for i := 0; i < n; i++ {
		typ := &platform.PEType{
			Name:        fmt.Sprintf("CPU%d", i),
			Key:         "cpu",
			Class:       platform.CPU,
			SpeedFactor: 1 + float64(i)/1000,
			SchedOpNS:   55,
			PowerW:      0.8,
		}
		cfg.PEs = append(cfg.PEs, &platform.PE{ID: i, Type: typ, HostCore: i, Share: 1})
	}
	return cfg
}

// classBoundaryWorkload is a small cpu-only-able trace dense enough to
// exercise scheduling on wide pools.
func classBoundaryWorkload() []Arrival {
	wtx := apps.WiFiTX(apps.DefaultWiFiParams())
	wrx := apps.WiFiRX(apps.DefaultWiFiParams())
	var out []Arrival
	for i := 0; i < 12; i++ {
		out = append(out,
			Arrival{Spec: wtx, At: vtime.Time(i) * 40_000},
			Arrival{Spec: wrx, At: vtime.Time(i)*40_000 + 15_000},
		)
	}
	return out
}

// TestSchedulerPathClassBoundary pins end to end that the indexed
// path has no class ceiling: 64, 65 and 130 interned cost classes all
// run indexed (Emulator.SchedulerPath, Report.SchedulerPath), and every
// run's report is byte-identical to its SliceOnly forcing — past 64
// classes, the indexed path against the slice oracle.
func TestSchedulerPathClassBoundary(t *testing.T) {
	trace := classBoundaryWorkload()
	for _, n := range []int{64, 65, 130} {
		cfg := speedClassedConfig(n)
		if got := cfg.NumClasses(); got != n {
			t.Fatalf("hand-built config interned %d classes, want %d", got, n)
		}
		for _, policyName := range []string{"frfs", "eft", "eft-power"} {
			indexed, err := sched.New(policyName, 5)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Options{
				Config: cfg, Policy: indexed, Registry: apps.Registry(),
				Seed: 2, SkipExecution: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if e.SchedulerPath() != SchedulerPathIndexed {
				t.Fatalf("%d classes/%s: SchedulerPath = %q, want %q", n, policyName, e.SchedulerPath(), SchedulerPathIndexed)
			}
			got, err := e.Run(trace)
			if err != nil {
				t.Fatalf("%d classes/%s: %v", n, policyName, err)
			}
			if got.SchedulerPath != SchedulerPathIndexed {
				t.Fatalf("%d classes/%s: report stamped %q, want %q", n, policyName, got.SchedulerPath, SchedulerPathIndexed)
			}
			slice, _ := sched.New(policyName, 5)
			eS, err := New(Options{
				Config: cfg, Policy: sched.SliceOnly(slice), Registry: apps.Registry(),
				Seed: 2, SkipExecution: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if eS.SchedulerPath() != SchedulerPathSlice {
				t.Fatalf("SliceOnly emulator reports path %q", eS.SchedulerPath())
			}
			want, err := eS.Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, want, got)
		}
	}
}

// TestCompileMetaMatchesViewMetaFor cross-checks the two independent
// derivations of the class partition: core.Compile lowers ReadyMeta
// against platform.Config.Classes, while sched.NewView interns classes
// from the handler table. For every node of every application on the
// three platform families — classes==types (ZCU102), a split "cpu"
// type (Odroid), and both at many-PE scale (synthetic-het) — plus a
// 130-class single-type pool, the compiled metadata must equal the
// view's own lowering exactly.
func TestCompileMetaMatchesViewMetaFor(t *testing.T) {
	cfgs := []*platform.Config{zcu(t, 3, 2), speedClassedConfig(130)}
	if od, err := platform.OdroidXU3(4, 3); err == nil {
		cfgs = append(cfgs, od)
	} else {
		t.Fatal(err)
	}
	if het, err := platform.SyntheticHet(8, 8, 4); err == nil {
		cfgs = append(cfgs, het)
	} else {
		t.Fatal(err)
	}
	reg := apps.Registry()
	for _, cfg := range cfgs {
		e, err := New(Options{
			Config: cfg, Policy: sched.EFT{}, Registry: reg, SkipExecution: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.view == nil {
			t.Fatalf("%s: no indexed view", cfg.Name)
		}
		if e.view.NumClasses() != cfg.NumClasses() {
			t.Fatalf("%s: view interned %d classes, config %d", cfg.Name, e.view.NumClasses(), cfg.NumClasses())
		}
		for _, spec := range fourApps() {
			p, err := Compile(spec, cfg, reg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.nodes {
				pn := &p.nodes[i]
				want := e.view.MetaFor(pn.choices)
				if !slices.Equal(pn.meta.Classes, want.Classes) || !slices.Equal(pn.meta.METClasses, want.METClasses) ||
					pn.meta.NumChoices != want.NumChoices {
					t.Fatalf("%s/%s/%s: compiled meta %+v, view lowering %+v",
						cfg.Name, spec.AppName, pn.name, pn.meta, want)
				}
				if len(pn.meta.Costs) != len(want.Costs) {
					t.Fatalf("%s/%s/%s: cost table length %d vs %d",
						cfg.Name, spec.AppName, pn.name, len(pn.meta.Costs), len(want.Costs))
				}
				for c := range want.Costs {
					if pn.meta.Costs[c] != want.Costs[c] {
						t.Fatalf("%s/%s/%s: class %d cost %d vs %d",
							cfg.Name, spec.AppName, pn.name, c, pn.meta.Costs[c], want.Costs[c])
					}
				}
			}
		}
	}
}

// TestNewRejectsDegenerateConfigs pins the construction-time
// validation: configurations that would crash or stall mid-run fail at
// New with a descriptive error.
func TestNewRejectsDegenerateConfigs(t *testing.T) {
	reg := apps.Registry()
	if _, err := New(Options{Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "at least one PE") {
		t.Fatalf("nil config: %v", err)
	}
	empty := &platform.Config{Name: "empty", Overlay: platform.A53}
	if _, err := New(Options{Config: empty, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "at least one PE") {
		t.Fatalf("empty config: %v", err)
	}
	noOverlay := &platform.Config{Name: "no-overlay", PEs: []*platform.PE{
		{ID: 0, Type: platform.A53, Share: 1},
	}}
	if _, err := New(Options{Config: noOverlay, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "overlay") {
		t.Fatalf("overlay-less config: %v", err)
	}
	noType := &platform.Config{Name: "no-type", Overlay: platform.A53, PEs: []*platform.PE{
		{ID: 0, Share: 1},
	}}
	if _, err := New(Options{Config: noType, Policy: sched.FRFS{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "no type") {
		t.Fatalf("type-less PE: %v", err)
	}
}
