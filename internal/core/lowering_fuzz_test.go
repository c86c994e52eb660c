package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/appmodel"
	"repro/internal/kernels"
	"repro/internal/platform"
)

// FuzzProgramLowering throws fuzzer-shaped layered DAGs at Compile and
// checks the lowered Program field by field against the spec and the
// configuration's class table: dense sorted-name IDs, head set, pred
// counts, successor wiring, choiceByType first-match order, and the
// indexed-scheduler metadata (compatible class list, per-class scaled
// costs, MET class list, choice count). The metadata is what the PR 4/5 indexed fast
// path schedules from, so any drift here is a silent parity break.
func FuzzProgramLowering(f *testing.F) {
	f.Add(int64(0), 2, 2, 0, 0)
	f.Add(int64(1), 4, 3, 1, 1)
	f.Add(int64(99), 1, 1, 2, 2)
	f.Add(int64(-5), 3, 2, 1, 3)
	f.Fuzz(func(t *testing.T, seed int64, layers, width, cfgMode, platMode int) {
		cfg := lowerFuzzConfig(cfgMode)
		rng := rand.New(rand.NewSource(seed))
		reg := kernels.NewRegistry()
		spec := lowerFuzzSpec(rng, reg, cfg, layers, width, platMode)
		if err := spec.Validate(); err != nil {
			t.Fatalf("generated spec invalid: %v", err)
		}

		p, err := Compile(spec, cfg, reg)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if p.TaskCount() != len(spec.DAG) {
			t.Fatalf("TaskCount %d != %d spec nodes", p.TaskCount(), len(spec.DAG))
		}

		classes := cfg.Classes()
		for id, pn := range p.nodes {
			node, ok := spec.DAG[pn.name]
			if !ok {
				t.Fatalf("node %d name %q not in spec", id, pn.name)
			}
			if got := p.NodeID(pn.name); got != id {
				t.Fatalf("NodeID(%q) = %d, want %d", pn.name, got, id)
			}
			if int(pn.preds) != len(node.Predecessors) {
				t.Fatalf("%s: preds %d != %d", pn.name, pn.preds, len(node.Predecessors))
			}
			if len(pn.succs) != len(node.Successors) {
				t.Fatalf("%s: %d succs != %d", pn.name, len(pn.succs), len(node.Successors))
			}
			for i, sid := range pn.succs {
				if p.nodes[sid].name != node.Successors[i] {
					t.Fatalf("%s: succ %d lowered to %q, spec says %q",
						pn.name, i, p.nodes[sid].name, node.Successors[i])
				}
			}

			// choices align with Platforms; choiceByType is the first
			// supporting entry per type.
			if len(pn.choices) != len(node.Platforms) {
				t.Fatalf("%s: %d choices != %d platforms", pn.name, len(pn.choices), len(node.Platforms))
			}
			for i, c := range pn.choices {
				if c.Key != node.Platforms[i].Name || c.CostNS != node.Platforms[i].CostNS {
					t.Fatalf("%s: choice %d = %+v, platform %+v", pn.name, i, c, node.Platforms[i])
				}
				if c.TypeID != cfg.TypeIndex(c.Key) {
					t.Fatalf("%s: choice %d TypeID %d != config index %d",
						pn.name, i, c.TypeID, cfg.TypeIndex(c.Key))
				}
			}
			for typ := 0; typ < cfg.NumTypes(); typ++ {
				want := int32(-1)
				for i, c := range pn.choices {
					if c.TypeID == typ {
						want = int32(i)
						break
					}
				}
				if pn.choiceByType[typ] != want {
					t.Fatalf("%s: choiceByType[%d] = %d, want %d", pn.name, typ, pn.choiceByType[typ], want)
				}
			}

			// Indexed metadata over the class table.
			if int(pn.meta.NumChoices) != len(pn.choices) {
				t.Fatalf("%s: meta.NumChoices %d != %d", pn.name, pn.meta.NumChoices, len(pn.choices))
			}
			var bestType int32 = -1
			var bestCost int64 = -1
			for _, c := range pn.choices {
				if bestCost < 0 || c.CostNS < bestCost {
					bestCost = c.CostNS
					bestType = int32(c.TypeID)
				}
			}
			// The class lists must be exactly the supported (resp. MET)
			// classes in ascending order: no class missing, none extra,
			// none repeated.
			var wantClasses, wantMET []int32
			for ci, sig := range classes {
				first := pn.choiceByType[sig.TypeIdx]
				if first >= 0 {
					wantClasses = append(wantClasses, int32(ci))
					want := int64(float64(pn.choices[first].CostNS) * sig.Speed)
					if pn.meta.Costs[ci] != want {
						t.Fatalf("%s: class %d cost %d, want %d", pn.name, ci, pn.meta.Costs[ci], want)
					}
				} else if pn.meta.Costs[ci] != 0 {
					t.Fatalf("%s: unsupported class %d has cost %d", pn.name, ci, pn.meta.Costs[ci])
				}
				if bestType >= 0 && int32(sig.TypeIdx) == bestType {
					wantMET = append(wantMET, int32(ci))
				}
			}
			if !slices.Equal(pn.meta.Classes, wantClasses) {
				t.Fatalf("%s: classes %v, want the supported classes %v", pn.name, pn.meta.Classes, wantClasses)
			}
			if !slices.Equal(pn.meta.METClasses, wantMET) {
				t.Fatalf("%s: MET classes %v, want %v (best type %d)", pn.name, pn.meta.METClasses, wantMET, bestType)
			}
		}

		// Head set: exactly the zero-pred nodes, ascending.
		var wantHeads []int32
		for id, pn := range p.nodes {
			if pn.preds == 0 {
				wantHeads = append(wantHeads, int32(id))
			}
		}
		if len(wantHeads) != len(p.heads) {
			t.Fatalf("heads %v, want %v", p.heads, wantHeads)
		}
		for i := range wantHeads {
			if p.heads[i] != wantHeads[i] {
				t.Fatalf("heads %v, want %v", p.heads, wantHeads)
			}
		}
		if p.NodeID("no_such_node") != -1 {
			t.Fatal("NodeID of an absent name must be -1")
		}
	})
}

// lowerFuzzConfig picks a hardware configuration by mode: homogeneous,
// accelerator-bearing, big.LITTLE (multi-class single-key types), and
// a three-way heterogeneous mix.
func lowerFuzzConfig(mode int) *platform.Config {
	m := mode % 4
	if m < 0 {
		m += 4
	}
	var cfg *platform.Config
	var err error
	switch m {
	case 0:
		cfg, err = platform.Synthetic(3, 0)
	case 1:
		cfg, err = platform.Synthetic(2, 2)
	case 2:
		cfg, err = platform.OdroidXU3(2, 2)
	default:
		cfg, err = platform.SyntheticHet(3, 2, 1)
	}
	if err != nil {
		panic(err)
	}
	return cfg
}

// lowerFuzzSpec builds a layered DAG whose nodes draw platform choices
// from the configuration's type keys, sometimes adding a key no PE of
// the configuration carries (TypeID -1 on the lowered choice) and
// sometimes repeating a key (only the first may win choiceByType).
func lowerFuzzSpec(rng *rand.Rand, reg *kernels.Registry, cfg *platform.Config, layers, width, platMode int) *appmodel.AppSpec {
	layers = clampInt(layers, 1, 5)
	width = clampInt(width, 1, 4)
	spec := &appmodel.AppSpec{
		AppName:      "lowerfuzz",
		SharedObject: "lowerfuzz.so",
		Variables:    map[string]appmodel.VariableSpec{"x": {Bytes: 8}},
		DAG:          map[string]appmodel.NodeSpec{},
	}
	_ = reg.Register(spec.SharedObject, "nop", func(ctx *kernels.Context) error { return nil })

	keys := cfg.TypeKeys()
	var prev []string
	node := 0
	for l := 0; l < layers; l++ {
		w := rng.Intn(width) + 1
		var layer []string
		for i := 0; i < w; i++ {
			name := fmt.Sprintf("n%02d", node)
			node++
			ns := appmodel.NodeSpec{Arguments: []string{"x"}}
			// Always at least one supported choice, then extras by mode.
			pick := keys[rng.Intn(len(keys))]
			ns.Platforms = append(ns.Platforms, appmodel.PlatformSpec{
				Name: pick, RunFunc: "nop", CostNS: int64(rng.Intn(10_000) + 1),
			})
			extra := platMode % 3
			if extra < 0 {
				extra += 3
			}
			for e := 0; e < extra; e++ {
				name := keys[rng.Intn(len(keys))]
				if rng.Intn(3) == 0 {
					name = "ghost_accel" // absent from every config
				}
				ns.Platforms = append(ns.Platforms, appmodel.PlatformSpec{
					Name: name, RunFunc: "nop", CostNS: int64(rng.Intn(10_000) + 1),
				})
			}
			for _, p := range prev {
				if rng.Intn(2) == 0 {
					ns.Predecessors = append(ns.Predecessors, p)
				}
			}
			if len(ns.Predecessors) == 0 && l > 0 {
				ns.Predecessors = []string{prev[0]}
			}
			spec.DAG[name] = ns
			layer = append(layer, name)
		}
		prev = layer
	}
	spec.Normalize()
	return spec
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
