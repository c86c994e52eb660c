package platform

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Config is one emulated DSSoC hardware configuration: the PEs drawn
// from a platform's resource pool, the overlay (management) processor
// running the application handler and workload manager, and the
// platform's DMA characteristics.
type Config struct {
	// Name is the paper-style configuration label, e.g. "2C+1F" or
	// "3BIG+2LTL".
	Name string
	// Platform identifies the COTS board ("zcu102", "odroid-xu3") or
	// the synthetic many-PE testbed ("synthetic").
	Platform string
	// PEs is the instantiated resource pool subset.
	PEs []*PE
	// Overlay is the PE type of the management core; its SchedOpNS
	// converts scheduler operation counts into charged overhead.
	Overlay *PEType
	// DMA models DDR<->accelerator transfers on this board.
	DMA DMAModel

	// typeKeys/typeIdx intern the distinct PE type keys of this
	// configuration into dense indices (in first-appearance order over
	// PEs). The emulation core compiles application platform choices
	// against these indices so the scheduling hot path compares
	// integers instead of strings. Filled by finalize(); configurations
	// built by the package constructors always carry them, and
	// TypeIndex falls back to a linear scan for hand-built Configs.
	typeKeys []string
	typeIdx  map[string]int

	// classes/classOf intern the configuration's cost classes: the
	// distinct (type key, speed factor, power) signatures, in
	// first-appearance order over PEs. A type key may span several
	// classes — the Odroid's big and LITTLE cores both match "cpu" but
	// differ in speed and power — and cost is uniform *within* a class
	// by construction, which is what lets the indexed scheduler's
	// cost-based fast paths (EFT family) decompose per class on any
	// configuration. Filled by finalize(); hand-built Configs recompute
	// through computeClasses.
	classes []ClassSig
	classOf []int32
}

// ClassSig is the cost signature of one interned PE class: everything
// the schedulers read per PE beyond its identity. Two PEs belong to the
// same class exactly when their signatures are equal, so any per-class
// quantity (scaled cost, energy) is exact for every member.
type ClassSig struct {
	// TypeIdx is the dense type index (TypeIndex of the class's key).
	TypeIdx int
	// Speed is the members' SpeedFactor.
	Speed float64
	// Power is the members' PowerW.
	Power float64
}

// computeClasses derives the configuration's cost classes in
// first-appearance order over PEs, with the per-PE class index. Like
// computeTypeKeys this is THE definition of the class interning order:
// sched.NewView re-derives the identical partition from its PE
// interface (same PE order, same signature), so compiled class lists
// and the view's class tables can never disagree.
func (c *Config) computeClasses() ([]ClassSig, []int32) {
	tidx := c.typeIdx
	if tidx == nil {
		_, tidx = c.computeTypeKeys()
	}
	classes := make([]ClassSig, 0, 2)
	of := make([]int32, len(c.PEs))
	for i, pe := range c.PEs {
		sig := ClassSig{TypeIdx: tidx[pe.Type.Key], Speed: pe.Type.SpeedFactor, Power: pe.Type.PowerW}
		ci := -1
		for j, s := range classes {
			if s == sig {
				ci = j
				break
			}
		}
		if ci < 0 {
			ci = len(classes)
			classes = append(classes, sig)
		}
		of[i] = int32(ci)
	}
	return classes, of
}

// NumClasses reports how many distinct cost classes the configuration
// interns (always >= NumTypes).
func (c *Config) NumClasses() int {
	if c.classOf != nil {
		return len(c.classes)
	}
	classes, _ := c.computeClasses()
	return len(classes)
}

// Classes lists the interned class signatures in index order. The
// returned slice must not be mutated.
func (c *Config) Classes() []ClassSig {
	if c.classOf != nil {
		return c.classes
	}
	classes, _ := c.computeClasses()
	return classes
}

// ClassOf returns the class index of the PE at the given position in
// PEs.
func (c *Config) ClassOf(peIdx int) int {
	if c.classOf != nil {
		return int(c.classOf[peIdx])
	}
	_, of := c.computeClasses()
	return int(of[peIdx])
}

// computeTypeKeys derives the configuration's distinct PE type keys in
// first-appearance order over PEs, with the reverse index. This is THE
// definition of the interning order: finalize caches its result, and
// every fallback for hand-built Configs recomputes through it, so the
// compiled choice TypeIDs and the resource handlers' type indices can
// never disagree.
func (c *Config) computeTypeKeys() ([]string, map[string]int) {
	keys := make([]string, 0, 2)
	idx := make(map[string]int, 2)
	for _, pe := range c.PEs {
		if _, ok := idx[pe.Type.Key]; !ok {
			idx[pe.Type.Key] = len(keys)
			keys = append(keys, pe.Type.Key)
		}
	}
	return keys, idx
}

// finalize interns the configuration's PE type keys and caches the PE
// labels. Constructors call it once the PE list is complete; after
// that the Config must be treated as immutable (configs are shared
// read-only across sweep workers).
func (c *Config) finalize() {
	c.typeKeys, c.typeIdx = c.computeTypeKeys()
	c.classes, c.classOf = c.computeClasses()
	for _, pe := range c.PEs {
		pe.label = pe.Label()
	}
}

// TypeIndex returns the dense index of a PE type key within this
// configuration, or -1 when no PE of that type is present. Indices are
// assigned in first-appearance order over PEs and are stable for the
// lifetime of the Config.
func (c *Config) TypeIndex(key string) int {
	idx := c.typeIdx
	if idx == nil {
		// Hand-built Config without finalize(): derive without caching
		// so concurrent readers stay safe.
		_, idx = c.computeTypeKeys()
	}
	if i, ok := idx[key]; ok {
		return i
	}
	return -1
}

// NumTypes reports how many distinct PE type keys the configuration
// uses.
func (c *Config) NumTypes() int {
	if c.typeIdx != nil {
		return len(c.typeKeys)
	}
	keys, _ := c.computeTypeKeys()
	return len(keys)
}

// TypeKeys lists the interned type keys in index order. The returned
// slice must not be mutated.
func (c *Config) TypeKeys() []string {
	if c.typeIdx != nil {
		return c.typeKeys
	}
	keys, _ := c.computeTypeKeys()
	return keys
}

// ZCU102 board limits: a quad-core A53 (one core reserved as the
// overlay processor) plus two FFT accelerators in the fabric.
const (
	ZCU102PoolCores = 3
	ZCU102PoolFFTs  = 2
)

// zcu102DMA reflects the udmabuf + AXI-DMA path of Figure 6: a fixed
// driver setup plus a per-byte streaming cost. Calibrated so FFTs up
// to 256 points (the paper's accelerator workloads are 128-point)
// complete faster on an A53 core than on the accelerator once both
// transfer directions are charged — the load-bearing observation of
// Figure 9 — while large transforms (Case Study 4's 1024-point DFT
// replacement) favour the accelerator over the naive CPU loop yet
// remain slightly slower than the optimised FFT library, matching the
// paper's 94x vs 102x speedups.
var zcu102DMA = DMAModel{SetupNS: 35_000, NSPerByte: 2.3, CtxSwitchNS: 12_000}

// ZCU102 builds a DSSoC configuration with nCores A53 cores and nFFT
// FFT accelerators, reproducing the resource-manager thread placement
// of Section II-D: CPU PEs get their own cores; accelerator manager
// threads fill unused pool cores first and then distribute round-robin
// across all pool cores, sharing where necessary.
func ZCU102(nCores, nFFT int) (*Config, error) {
	if nCores < 0 || nCores > ZCU102PoolCores {
		return nil, fmt.Errorf("platform: ZCU102 supports 0..%d cores, got %d", ZCU102PoolCores, nCores)
	}
	if nFFT < 0 || nFFT > ZCU102PoolFFTs {
		return nil, fmt.Errorf("platform: ZCU102 supports 0..%d FFT accelerators, got %d", ZCU102PoolFFTs, nFFT)
	}
	if nCores+nFFT == 0 {
		return nil, fmt.Errorf("platform: configuration needs at least one PE")
	}
	cfg := &Config{
		Name:     fmt.Sprintf("%dC+%dF", nCores, nFFT),
		Platform: "zcu102",
		Overlay:  A53,
		DMA:      zcu102DMA,
	}
	id := 0
	for i := 0; i < nCores; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: A53, HostCore: i, Share: 1})
		id++
	}
	hosts := managerPlacement(nCores, ZCU102PoolCores, nFFT)
	occupancy := map[int]int{}
	for _, h := range hosts {
		occupancy[h]++
	}
	for i := 0; i < nFFT; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: FFTAccel, HostCore: hosts[i], Share: occupancy[hosts[i]]})
		id++
	}
	cfg.finalize()
	return cfg, nil
}

// SyntheticMaxPEs bounds the synthetic testbed's resource pool per PE
// class. It exists to catch typos, not hardware limits.
const SyntheticMaxPEs = 1024

// Synthetic builds a many-PE DSSoC configuration that no COTS board
// provides: nCores A53-class cores plus nFFT FFT accelerators, with
// accelerator manager threads placed round-robin across the cores. As
// everywhere else, Share counts co-located *manager* threads (the
// contention Figure 9's 2C+2F anomaly measures): with nFFT <= nCores
// each manager runs alone on its host core (Share=1, like the
// ZCU102's 3C+1F placement), and managers start contending once
// accelerators outnumber cores. Synthetic exists to exercise
// scheduling and emulator scalability well beyond the ZCU102's 3C+2F
// — the 32- and 64-PE sweeps of the scale study — while reusing the
// ZCU102's calibrated timing model so results stay comparable.
func Synthetic(nCores, nFFT int) (*Config, error) {
	if nCores < 1 || nCores > SyntheticMaxPEs {
		return nil, fmt.Errorf("platform: synthetic supports 1..%d cores, got %d", SyntheticMaxPEs, nCores)
	}
	if nFFT < 0 || nFFT > SyntheticMaxPEs {
		return nil, fmt.Errorf("platform: synthetic supports 0..%d FFT accelerators, got %d", SyntheticMaxPEs, nFFT)
	}
	cfg := &Config{
		Name:     fmt.Sprintf("%dC+%dF-syn", nCores, nFFT),
		Platform: "synthetic",
		Overlay:  A53,
		DMA:      zcu102DMA,
	}
	id := 0
	for i := 0; i < nCores; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: A53, HostCore: i, Share: 1})
		id++
	}
	hosts := managerPlacement(nCores, nCores, nFFT)
	occupancy := map[int]int{}
	for _, h := range hosts {
		occupancy[h]++
	}
	for i := 0; i < nFFT; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: FFTAccel, HostCore: hosts[i], Share: occupancy[hosts[i]]})
		id++
	}
	cfg.finalize()
	return cfg, nil
}

// SyntheticHet builds a heterogeneous many-PE configuration no COTS
// board provides: nBig A15-class performance cores and nLittle A7-class
// efficiency cores (both matching the "cpu" platform key, like the
// Odroid's big.LITTLE pool) plus nFFT accelerators, with manager
// threads placed round-robin across all CPU cores. It exists to
// exercise the cost-class interning at scale — "cpu" spans two cost
// classes with different speed and power, so the EFT-family indexed
// paths must handle a split type on pools far past the Odroid's seven
// PEs. The overlay is an A53 (a slow LITTLE overlay at 512 PEs would
// drown every run in monitor overhead); the timing model is the
// ZCU102's, keeping results comparable with Synthetic.
func SyntheticHet(nBig, nLittle, nFFT int) (*Config, error) {
	if nBig < 0 || nBig > SyntheticMaxPEs {
		return nil, fmt.Errorf("platform: synthetic-het supports 0..%d big cores, got %d", SyntheticMaxPEs, nBig)
	}
	if nLittle < 0 || nLittle > SyntheticMaxPEs {
		return nil, fmt.Errorf("platform: synthetic-het supports 0..%d LITTLE cores, got %d", SyntheticMaxPEs, nLittle)
	}
	if nFFT < 0 || nFFT > SyntheticMaxPEs {
		return nil, fmt.Errorf("platform: synthetic-het supports 0..%d FFT accelerators, got %d", SyntheticMaxPEs, nFFT)
	}
	nCores := nBig + nLittle
	if nCores == 0 {
		if nFFT == 0 {
			return nil, fmt.Errorf("platform: configuration needs at least one PE")
		}
		return nil, fmt.Errorf("platform: synthetic-het needs at least one CPU core to host %d accelerator manager threads", nFFT)
	}
	cfg := &Config{
		Name:     fmt.Sprintf("%dB+%dL+%dF-het", nBig, nLittle, nFFT),
		Platform: "synthetic-het",
		Overlay:  A53,
		DMA:      zcu102DMA,
	}
	id := 0
	for i := 0; i < nBig; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: A15Big, HostCore: id, Share: 1})
		id++
	}
	for i := 0; i < nLittle; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: A7Little, HostCore: id, Share: 1})
		id++
	}
	hosts := managerPlacement(nCores, nCores, nFFT)
	occupancy := map[int]int{}
	for _, h := range hosts {
		occupancy[h]++
	}
	for i := 0; i < nFFT; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: FFTAccel, HostCore: hosts[i], Share: occupancy[hosts[i]]})
		id++
	}
	cfg.finalize()
	return cfg, nil
}

// managerPlacement assigns accelerator manager threads to pool cores:
// unused cores first (one each), then round-robin over the whole pool.
// Returns the host core index per accelerator.
func managerPlacement(usedCores, poolCores, nAccel int) []int {
	hosts := make([]int, nAccel)
	unused := make([]int, 0, poolCores-usedCores)
	for c := usedCores; c < poolCores; c++ {
		unused = append(unused, c)
	}
	for i := 0; i < nAccel; i++ {
		if i < len(unused) {
			hosts[i] = unused[i]
			continue
		}
		// Overflow: distribute evenly over all pool cores, continuing
		// from the unused ones so they absorb load first.
		k := i - len(unused)
		if len(unused) > 0 {
			hosts[i] = unused[k%len(unused)]
		} else {
			hosts[i] = k % poolCores
		}
	}
	return hosts
}

// Odroid XU3 board limits: four A15 big cores and four A7 LITTLE cores
// with one LITTLE core reserved as the overlay processor (Section
// III-B).
const (
	OdroidPoolBig    = 4
	OdroidPoolLittle = 3
)

// OdroidXU3 builds a big.LITTLE configuration. There are no
// accelerators, so the DMA model is unused; the distinguishing feature
// is the slow LITTLE overlay core, which inflates scheduling overhead
// as PE counts grow (Figure 11's 4B+3L inversion).
func OdroidXU3(nBig, nLittle int) (*Config, error) {
	if nBig < 0 || nBig > OdroidPoolBig {
		return nil, fmt.Errorf("platform: Odroid XU3 supports 0..%d big cores, got %d", OdroidPoolBig, nBig)
	}
	if nLittle < 0 || nLittle > OdroidPoolLittle {
		return nil, fmt.Errorf("platform: Odroid XU3 supports 0..%d LITTLE cores, got %d", OdroidPoolLittle, nLittle)
	}
	if nBig+nLittle == 0 {
		return nil, fmt.Errorf("platform: configuration needs at least one PE")
	}
	cfg := &Config{
		Name:     fmt.Sprintf("%dBIG+%dLTL", nBig, nLittle),
		Platform: "odroid-xu3",
		Overlay:  A7Little,
	}
	id := 0
	for i := 0; i < nBig; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: A15Big, HostCore: i, Share: 1})
		id++
	}
	for i := 0; i < nLittle; i++ {
		cfg.PEs = append(cfg.PEs, &PE{ID: id, Type: A7Little, HostCore: OdroidPoolBig + i, Share: 1})
		id++
	}
	cfg.finalize()
	return cfg, nil
}

// CountByClass reports how many PEs of each class the config has.
func (c *Config) CountByClass() (cpus, accels int) {
	for _, pe := range c.PEs {
		if pe.Type.Class == CPU {
			cpus++
		} else {
			accels++
		}
	}
	return
}

// SupportsKey reports whether any PE in the configuration matches the
// given platform key; used to validate that a workload can run.
func (c *Config) SupportsKey(key string) bool {
	for _, pe := range c.PEs {
		if pe.Type.Key == key {
			return true
		}
	}
	return false
}

// configJSON is the on-disk form consumed by cmd/emulate: the paper's
// "input configuration file" naming the number and types of PEs.
type configJSON struct {
	Platform string `json:"platform"`
	Cores    int    `json:"cores"`
	FFTs     int    `json:"ffts"`
	Big      int    `json:"big"`
	Little   int    `json:"little"`
}

// LoadConfigFile reads a hardware configuration JSON of the form
//
//	{"platform": "zcu102", "cores": 2, "ffts": 1}
//	{"platform": "odroid-xu3", "big": 3, "little": 2}
//	{"platform": "synthetic", "cores": 32, "ffts": 8}
//	{"platform": "synthetic-het", "big": 256, "little": 192, "ffts": 64}
//
// Degenerate documents (zero PEs, counts beyond the board's pool,
// unknown platform names) fail here with a descriptive error rather
// than surfacing later as a stuck or crashing emulation.
func LoadConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: reading config: %w", err)
	}
	return ParseConfigJSON(data)
}

// ParseConfigJSON parses the configuration document format of
// LoadConfigFile.
func ParseConfigJSON(data []byte) (*Config, error) {
	var cj configJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return nil, fmt.Errorf("platform: decoding config: %w", err)
	}
	switch strings.ToLower(cj.Platform) {
	case "zcu102":
		return ZCU102(cj.Cores, cj.FFTs)
	case "odroid-xu3", "odroid", "xu3":
		return OdroidXU3(cj.Big, cj.Little)
	case "synthetic", "syn":
		return Synthetic(cj.Cores, cj.FFTs)
	case "synthetic-het", "syn-het", "het":
		return SyntheticHet(cj.Big, cj.Little, cj.FFTs)
	default:
		return nil, fmt.Errorf("platform: unknown platform %q", cj.Platform)
	}
}
