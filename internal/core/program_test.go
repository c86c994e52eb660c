package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/apps"
	"repro/internal/kernels"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// fourApps returns the paper's application library as (name, spec)
// pairs in a fixed order.
func fourApps() []*appmodel.AppSpec {
	return []*appmodel.AppSpec{
		apps.RangeDetection(apps.DefaultRangeParams()),
		apps.PulseDoppler(apps.DefaultDopplerParams()),
		apps.WiFiTX(apps.DefaultWiFiParams()),
		apps.WiFiRX(apps.DefaultWiFiParams()),
	}
}

// referenceCompile is an independent, deliberately naive map-based
// lowering of an AppSpec — the shape of the emulator's pre-compilation
// per-arrival instantiation: string-keyed maps, repeated registry
// lookups, per-node slices, IDs assigned by topological order rather
// than Compile's sorted-name order. The differential tests run the
// emulator against this reference template and require reports
// identical to the compiled path, so any behavioural shortcut in
// Compile (head order, successor order, platform entry order, symbol
// binding) shows up as a report diff.
func referenceCompile(t *testing.T, spec *appmodel.AppSpec, cfg *platform.Config, reg *kernels.Registry) *Program {
	t.Helper()
	order, err := spec.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]int32{}
	for i, name := range order {
		ids[name] = int32(i)
	}
	p := &Program{Spec: spec, nodes: make([]progNode, len(order))}
	for i, name := range order {
		node := spec.DAG[name]
		pn := &p.nodes[i]
		pn.name = name
		pn.spec = node
		pn.preds = int32(len(node.Predecessors))
		pn.dataBytes = spec.DataBytes(name)
		for _, succ := range node.Successors {
			pn.succs = append(pn.succs, ids[succ])
		}
		for _, plat := range node.Platforms {
			so := plat.SharedObject
			if so == "" {
				so = spec.SharedObject
			}
			f, err := reg.Lookup(so, plat.RunFunc)
			if err != nil {
				t.Fatal(err)
			}
			pn.choices = append(pn.choices, sched.PlatformChoice{
				Key:    plat.Name,
				TypeID: cfg.TypeIndex(plat.Name),
				CostNS: plat.CostNS,
			})
			pn.funcs = append(pn.funcs, f)
		}
		pn.choiceByType = make([]int32, cfg.NumTypes())
		for ti := range pn.choiceByType {
			pn.choiceByType[ti] = -1
		}
		for ci, c := range pn.choices {
			if c.TypeID >= 0 && pn.choiceByType[c.TypeID] < 0 {
				pn.choiceByType[c.TypeID] = int32(ci)
			}
		}
		// The indexed-scheduler metadata is part of the progNode
		// contract; derive it independently from this lowering's own
		// choice list, over the configuration's cost classes.
		pn.meta = sched.ReadyMeta{NumChoices: int32(len(pn.choices))}
		classes := cfg.Classes()
		pn.meta.Costs = make([]int64, len(classes))
		for c, sig := range classes {
			if ci := pn.choiceByType[sig.TypeIdx]; ci >= 0 {
				pn.meta.Classes = append(pn.meta.Classes, int32(c))
				pn.meta.Costs[c] = int64(float64(pn.choices[ci].CostNS) * sig.Speed)
			}
		}
		bestType := int32(-1)
		var bestCost int64 = -1
		for _, c := range pn.choices {
			if bestCost < 0 || c.CostNS < bestCost {
				bestCost = c.CostNS
				bestType = int32(c.TypeID)
			}
		}
		for c, sig := range classes {
			if bestType >= 0 && int32(sig.TypeIdx) == bestType {
				pn.meta.METClasses = append(pn.meta.METClasses, int32(c))
			}
		}
	}
	// Heads in sorted-name order, exactly as AppSpec.Heads yields them.
	for _, name := range spec.Heads() {
		p.heads = append(p.heads, ids[name])
	}
	return p
}

// primedCache returns a ProgramCache whose only entries are the given
// reference templates, so an emulator using it runs the map-derived
// lowering instead of Compile's.
func primedCache(progs map[*appmodel.AppSpec]*Program, cfg *platform.Config, reg *kernels.Registry) *ProgramCache {
	c := NewProgramCache()
	for spec, p := range progs {
		c.m[programKey{spec: spec, cfg: cfg, reg: reg}] = p
	}
	return c
}

// TestCompiledMatchesMapReference is the determinism contract of the
// compile/instantiate split: for all four applications under all
// seven policies, the compiled path must produce a stats.Report
// identical — task by task, field by field — to a run instantiated
// from the naive map-based reference lowering.
func TestCompiledMatchesMapReference(t *testing.T) {
	cfg := zcu(t, 3, 2)
	reg := apps.Registry()
	specs := fourApps()
	refs := map[*appmodel.AppSpec]*Program{}
	for _, spec := range specs {
		refs[spec] = referenceCompile(t, spec, cfg, reg)
	}
	ref := primedCache(refs, cfg, reg)

	var arrivals []Arrival
	for i, spec := range specs {
		arrivals = append(arrivals,
			Arrival{Spec: spec, At: vtime.Time(i) * 25_000},
			Arrival{Spec: spec, At: 300_000 + vtime.Time(i)*40_000},
		)
	}
	for _, policyName := range sched.Names() {
		run := func(programs *ProgramCache) *stats.Report {
			policy, err := sched.New(policyName, 3)
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Options{
				Config:        cfg,
				Policy:        policy,
				Registry:      reg,
				Seed:          9,
				JitterSigma:   0.02,
				SkipExecution: true,
				Programs:      programs,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Run(arrivals)
			if err != nil {
				t.Fatalf("%s: %v", policyName, err)
			}
			return rep
		}
		compiled := run(nil) // shared cache -> Compile path
		reference := run(ref)
		compareReports(t, reference, compiled)
	}
}

// TestCompileLowering checks the template structure directly against
// the spec: dense sorted-name IDs, head order, successor order,
// predecessor counts, platform alignment and symbol binding.
func TestCompileLowering(t *testing.T) {
	cfg := zcu(t, 3, 2)
	reg := apps.Registry()
	for _, spec := range fourApps() {
		p, err := Compile(spec, cfg, reg)
		if err != nil {
			t.Fatal(err)
		}
		if p.TaskCount() != len(spec.DAG) {
			t.Fatalf("%s: %d nodes, want %d", spec.AppName, p.TaskCount(), len(spec.DAG))
		}
		names := make([]string, 0, len(spec.DAG))
		for name := range spec.DAG {
			names = append(names, name)
		}
		sort.Strings(names)
		for i, name := range names {
			if p.nodes[i].name != name || p.NodeID(name) != i {
				t.Fatalf("%s: node %q not at sorted position %d (NodeID=%d)",
					spec.AppName, name, i, p.NodeID(name))
			}
			node := spec.DAG[name]
			pn := &p.nodes[i]
			if int(pn.preds) != len(node.Predecessors) {
				t.Fatalf("%s/%s: preds %d want %d", spec.AppName, name, pn.preds, len(node.Predecessors))
			}
			if len(pn.succs) != len(node.Successors) {
				t.Fatalf("%s/%s: %d succs want %d", spec.AppName, name, len(pn.succs), len(node.Successors))
			}
			for si, succ := range node.Successors {
				if p.nodes[pn.succs[si]].name != succ {
					t.Fatalf("%s/%s: succ %d is %q want %q",
						spec.AppName, name, si, p.nodes[pn.succs[si]].name, succ)
				}
			}
			if len(pn.choices) != len(node.Platforms) || len(pn.funcs) != len(node.Platforms) {
				t.Fatalf("%s/%s: choices/funcs not aligned with platforms", spec.AppName, name)
			}
			for ci, plat := range node.Platforms {
				c := pn.choices[ci]
				if c.Key != plat.Name || c.CostNS != plat.CostNS || c.TypeID != cfg.TypeIndex(plat.Name) {
					t.Fatalf("%s/%s: choice %d = %+v does not match platform %+v",
						spec.AppName, name, ci, c, plat)
				}
				so := plat.SharedObject
				if so == "" {
					so = spec.SharedObject
				}
				want, err := reg.Lookup(so, plat.RunFunc)
				if err != nil {
					t.Fatal(err)
				}
				if reflect.ValueOf(pn.funcs[ci]).Pointer() != reflect.ValueOf(want).Pointer() {
					t.Fatalf("%s/%s: platform %s bound to wrong kernel", spec.AppName, name, plat.Name)
				}
			}
			if pn.dataBytes != spec.DataBytes(name) {
				t.Fatalf("%s/%s: dataBytes %d want %d", spec.AppName, name, pn.dataBytes, spec.DataBytes(name))
			}
			// choiceByType agrees with PlatformFor's first-match scan.
			for ti, key := range cfg.TypeKeys() {
				wantPlat, ok := node.PlatformFor(key)
				ci := pn.choiceByType[ti]
				if ok != (ci >= 0) {
					t.Fatalf("%s/%s: choiceByType[%s] support mismatch", spec.AppName, name, key)
				}
				if ok && pn.choices[ci].Key != wantPlat.Name {
					t.Fatalf("%s/%s: choiceByType[%s] picked %q want %q",
						spec.AppName, name, key, pn.choices[ci].Key, wantPlat.Name)
				}
			}
		}
		// Heads ascend and are exactly the predecessor-free nodes.
		wantHeads := spec.Heads()
		if len(p.heads) != len(wantHeads) {
			t.Fatalf("%s: %d heads want %d", spec.AppName, len(p.heads), len(wantHeads))
		}
		for i, hid := range p.heads {
			if p.nodes[hid].name != wantHeads[i] {
				t.Fatalf("%s: head %d is %q want %q", spec.AppName, i, p.nodes[hid].name, wantHeads[i])
			}
		}
	}
	if p := mustCompileErr(t, cfg, reg); p == "" {
		t.Fatal("compile of spec with unknown symbol succeeded")
	}
}

// mustCompileErr compiles a spec with an unknown runfunc and returns
// the error text.
func mustCompileErr(t *testing.T, cfg *platform.Config, reg *kernels.Registry) string {
	t.Helper()
	spec := apps.RangeDetection(apps.DefaultRangeParams())
	n := spec.DAG["MAX"]
	n.Platforms = []appmodel.PlatformSpec{{Name: "cpu", RunFunc: "ghost_func", CostNS: 10}}
	spec.DAG["MAX"] = n
	_, err := Compile(spec, cfg, reg)
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestProgramCacheSharing pins the compile-once behaviour: every
// emulator over the same (spec, config, registry) triple reuses one
// template, while a changed spec compiles fresh.
func TestProgramCacheSharing(t *testing.T) {
	cfg := zcu(t, 2, 1)
	reg := apps.Registry()
	spec := apps.WiFiTX(apps.DefaultWiFiParams())
	cache := NewProgramCache()
	p1, err := cache.Get(spec, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.Get(spec, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same triple compiled twice")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d templates, want 1", cache.Len())
	}
	// A fresh spec (even with identical content) is a different
	// archetype: templates key on identity.
	if _, err := cache.Get(apps.WiFiTX(apps.DefaultWiFiParams()), cfg, reg); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d templates, want 2", cache.Len())
	}
	// Compile errors must not be cached.
	bad := apps.RangeDetection(apps.DefaultRangeParams())
	n := bad.DAG["MAX"]
	n.Platforms = []appmodel.PlatformSpec{{Name: "cpu", RunFunc: "ghost_func", CostNS: 10}}
	bad.DAG["MAX"] = n
	if _, err := cache.Get(bad, cfg, reg); err == nil {
		t.Fatal("bad spec compiled")
	}
	if cache.Len() != 2 {
		t.Fatalf("error was cached: %d entries", cache.Len())
	}
}
