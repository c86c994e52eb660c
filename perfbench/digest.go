package main

// Output digests: the correctness gate. Each workload hashes the
// simulated outputs of every operation; digests.json holds the
// committed digests for the default seed (and, for the study, whose
// experiments fix their own seeds, for every seed).

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"repro/internal/stats"
)

//go:embed digests.json
var digestsJSON []byte

// committed maps a key to its digests: per stream for the emulation
// workloads, per request of the fixed sequence for the daemon, and a
// single entry for the study.
var committed = func() map[string][]string {
	m := map[string][]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}()

// committedDigest returns the key's committed digest at index. A key
// with a single committed digest uses it for every index.
func committedDigest(key string, index int) (string, bool) {
	ds := committed[key]
	switch {
	case len(ds) == 1:
		return ds[0], true
	case index < len(ds):
		return ds[index], true
	}
	return "", false
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// reportDigest hashes a report's simulated content: everything except
// SchedulerPath, which is host provenance (the scheduler machinery
// used), not modelled behaviour. Records are encoded one at a time so
// hashing a large batch report does not buffer it whole.
func reportDigest(h hash.Hash, r *stats.Report) error {
	c := *r
	c.SchedulerPath = ""
	c.Tasks, c.Apps = nil, nil
	enc := json.NewEncoder(h)
	if err := enc.Encode(&c); err != nil {
		return err
	}
	for i := range r.Tasks {
		if err := enc.Encode(&r.Tasks[i]); err != nil {
			return err
		}
	}
	for i := range r.Apps {
		if err := enc.Encode(&r.Apps[i]); err != nil {
			return err
		}
	}
	return nil
}

// onlineDigest hashes an Online sink's aggregates: counts, and the
// mean, extremes and tracked quantiles of every distribution.
func onlineDigest(h hash.Hash, o *stats.Online, pes []stats.PEStats) {
	dist := func(name string, d *stats.Dist) {
		fmt.Fprintf(h, "%s n=%d mean=%v min=%v max=%v", name, d.Count(), d.Mean(), d.Min(), d.Max())
		for _, p := range stats.DefaultQuantiles {
			fmt.Fprintf(h, " q%v=%v", p, d.Quantile(p))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "tasks=%d apps=%d\n", o.TasksSeen, o.AppsSeen)
	dist("wait", &o.Wait)
	dist("response", &o.Response)
	for _, pe := range pes {
		if d := o.PEBusy(pe.PEID); d != nil {
			dist(fmt.Sprintf("pe%d", pe.PEID), d)
		}
	}
}

func newDigest() hash.Hash { return sha256.New() }
