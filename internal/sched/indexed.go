package sched

// Indexed fast paths for the built-in policies. Each ScheduleIndexed
// reproduces its policy's slice-path Schedule byte for byte — same
// assignment batch in the same order, same charged Ops — while only
// examining idle PEs and compatible tasks through the View's bitmap
// and heap queries. The slice implementations in sched.go and
// extensions.go remain the semantic definition; the differential tests
// (TestIndexedMatchesSlicePolicies here, TestIndexedMatchesSlicePath
// in internal/core) pin the equivalence for every policy across the
// synthetic platform grid and the Odroid's big.LITTLE pools.
//
// Everything is indexed by cost class (see ReadyMeta): within a class,
// speed and power are uniform by construction, so a task's cost on
// every member PE is one compiled number (meta.Costs[c]) and the
// EFT-family per-class decompositions are exact on any configuration —
// there is no cost-non-uniform fallback left to fall back to.
//
// Charged-ops recipes (derived from the slice scans):
//
//	FRFS:     P + per task: failed idle probes below the match + 1,
//	          or the whole idle pool when nothing supports it.
//	MET:      P + per task: its choice-list length.
//	EFT:      P + per task: placed/32 + eftPairWeight*P, where placed
//	          counts earlier tasks with a live class to wait on.
//	RANDOM:   P + P per task.
//	FRFS-RQ:  P + P per task while spare queue capacity remains.
//	EFT-RQ:   P + eftPairWeight*P per task while capacity remains.
//	EFT-PWR:  P + per task: eftPairWeight*P + its idle candidate count.
//
// The charge is per window task, but the host work need not be: once a
// call's idle snapshot is empty no later task can be assigned, so EFT,
// RANDOM and EFT-PWR stop walking the window there and add the
// suffix's ops directly (eftSuffixOps for EFT's rescan term). EFT's
// host cost per invocation is O(tasks until the idle snapshot empties
// + classes x words), not O(window).

import "repro/internal/vtime"

// ScheduleIndexed implements IndexedPolicy: the FRFS probe order is
// "lowest-index idle supporting PE", so each ready task resolves to
// one bitmap scan plus a popcount for the charged failed probes.
func (FRFS) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	res.Ops += v.numPEs() // availability check per resource handler
	v.beginIdleScratch()
	ready := v.Ready()
	meta := v.metas()
	for ti := 0; ti < len(ready) && v.scr.idleTot > 0; ti++ {
		pi := v.minIdleOf(meta[ti].Classes)
		if pi < 0 {
			// Every idle PE is probed and none supports the task.
			res.Ops += v.scr.idleTot
			continue
		}
		res.Ops += v.idleRankBelow(pi) + 1
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pi})
		v.takeIdle(pi)
	}
	return res
}

// ScheduleIndexed implements IndexedPolicy: the minimum-cost classes
// are compiled into the ready metadata (every class of MET's chosen
// type), so each task is one min-idle lookup over that class list.
func (MET) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	res.Ops += v.numPEs()
	v.beginIdleScratch()
	meta := v.metas()
	for ti := range meta {
		m := meta[ti]
		res.Ops += int(m.NumChoices) // cost comparison per platform entry
		// An empty METClasses is a minimum-cost platform with no PEs in
		// this configuration: the task waits, as on the slice path.
		if pi := v.minIdleOf(m.METClasses); pi >= 0 {
			res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pi})
			v.takeIdle(pi)
		}
		// Unassigned tasks simply wait for a PE of their MET type.
	}
	return res
}

// ScheduleIndexed implements IndexedPolicy. EFT's candidate set per
// task decomposes by cost class: the best idle PE of a class is its
// lowest-index one (all share the finish now+cost), and the best
// busy/tentatively-placed PE is the per-class heap minimum over
// (tentative, index); the global winner is the lexicographic minimum
// (finish, index) across both kinds — exactly the slice scan's
// first-strict-minimum in PE order. Tentative placements re-enter the
// heaps, so later tasks observe them just like the slice path's
// tentative table. Class costs come compiled (meta.Costs), so the
// Odroid's split "cpu" type costs nothing extra.
func (EFT) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	v.beginIdleScratch()
	v.beginTentative(now)
	ready := v.Ready()
	meta := v.metas()
	placed := 0
	ti := 0
	for ; ti < len(ready) && v.scr.idleTot > 0; ti++ {
		// The reference implementation's tentative-placement rescan
		// (see EFT.Schedule) plus one pair evaluation per PE.
		res.Ops += placed / 32
		res.Ops += eftPairWeight * P
		costs := meta[ti].Costs
		bestPE := -1
		var bestFinish vtime.Time
		bestIdle := false
		for _, c := range meta[ti].Classes {
			cc := int(c)
			cost := vtime.Duration(costs[cc])
			if pi := v.minIdleOfClass(cc); pi >= 0 {
				f := now.Add(cost)
				if bestPE == -1 || f < bestFinish || (f == bestFinish && pi < bestPE) {
					bestPE, bestFinish, bestIdle = pi, f, true
				}
			}
			if at, pi, ok := v.peekBusyMin(cc); ok {
				f := at.Add(cost)
				if bestPE == -1 || f < bestFinish || (f == bestFinish && pi < bestPE) {
					bestPE, bestFinish, bestIdle = pi, f, false
				}
			}
		}
		if bestPE < 0 {
			continue
		}
		placed++
		if bestIdle {
			res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: bestPE})
			v.takeIdle(bestPE)
		}
		// Busy best: the task waits but its tentative placement
		// influences later decisions. Assigned best: the PE joins the
		// busy set with its committed finish. Either way the PE's
		// tentative advances to bestFinish.
		v.setTentative(bestPE, bestFinish)
	}
	res.Ops += v.eftSuffixOps(meta[ti:], placed, P)
	return res
}

// eftSuffixOps is EFT's charge for the window suffix a call reaches
// with its idle snapshot empty. Every idle PE was taken and re-entered
// its class heap, so a task there finds a tentative-wait target exactly
// when one of its classes has a live member, and is never assigned:
// each task only adds its rescan and pair charges, and bumps placed if
// it has a live class. When every class is live and no window entry
// has an empty class list, that is every task, and the rescan terms
// sum in closed form; otherwise (faults, DVFS-emptied classes,
// unplaceable tasks) a tight loop counts them.
func (v *View) eftSuffixOps(rest []*ReadyMeta, placed, P int) int {
	k := len(rest)
	ops := k * eftPairWeight * P
	if v.noClassTasks == 0 && v.allClassesLive() {
		return ops + eftRescanOps(placed+k) - eftRescanOps(placed)
	}
	for _, m := range rest {
		ops += placed / 32
		if v.anyLiveClass(m.Classes) {
			placed++
		}
	}
	return ops
}

// eftRescanOps is the summed rescan charge sum_{j<n} j/32 of n
// consecutive placements starting from none: q full blocks of 32
// contribute 32*(0+1+...+(q-1)), the r-entry remainder q each.
func eftRescanOps(n int) int {
	q, r := n/32, n%32
	return 32*q*(q-1)/2 + q*r
}

// ScheduleIndexed implements IndexedPolicy: RANDOM's candidate list is
// the index-ordered idle supporting PEs, so the draw resolves to a
// k-th-set-bit select. The generator is consumed exactly as the slice
// path does (one Intn per task with candidates), keeping seeded runs
// identical.
func (r *Random) ScheduleIndexed(now vtime.Time, v *View) Result {
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	v.beginIdleScratch()
	meta := v.metas()
	ti := 0
	for ; ti < len(meta) && v.scr.idleTot > 0; ti++ {
		res.Ops += P
		classes := meta[ti].Classes
		n := v.idleCountOf(classes)
		if n == 0 {
			continue
		}
		pi := v.kthIdleOf(classes, r.rng.Intn(n))
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pi})
		v.takeIdle(pi)
	}
	// With the idle snapshot empty every later task has no candidate,
	// so it only charges its scan and draws nothing.
	res.Ops += (len(meta) - ti) * P
	return res
}

// ScheduleIndexed implements IndexedPolicy: FRFSQ's shortest-queue
// pick is a (load, index) minimum over per-(class, load) buckets.
func (q FRFSQ) ScheduleIndexed(now vtime.Time, v *View) Result {
	depth := int32(q.Depth)
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	if depth > maxBucketDepth {
		return q.Schedule(now, v.Ready(), v.pes)
	}
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	free := v.beginLoadBuckets(depth)
	ready := v.Ready()
	meta := v.metas()
	for ti := 0; ti < len(ready) && free > 0; ti++ {
		res.Ops += P
		best := v.minLoadOf(meta[ti].Classes, depth)
		if best < 0 {
			continue
		}
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: best})
		v.bumpLoadBucket(best, depth)
		free--
	}
	return res
}

// maxBucketDepth bounds the per-(class, load) bucket table; deeper
// reservation queues (never the DefaultQueueDepth) take the slice
// path.
const maxBucketDepth = 64

// ScheduleIndexed implements IndexedPolicy: EFTQ's per-class best is
// the heap minimum over (availability, index) of PEs with spare
// capacity (uniform class cost makes that the (finish, index) argmin);
// committed placements advance availability and re-enter the heap.
func (q EFTQ) ScheduleIndexed(now vtime.Time, v *View) Result {
	depth := int32(q.Depth)
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	free := v.beginAvailHeaps(now, depth)
	ready := v.Ready()
	meta := v.metas()
	for ti := 0; ti < len(ready) && free > 0; ti++ {
		res.Ops += eftPairWeight * P
		costs := meta[ti].Costs
		best := -1
		var bestFinish vtime.Time
		var bestCost vtime.Duration
		for _, c := range meta[ti].Classes {
			cc := int(c)
			cost := vtime.Duration(costs[cc])
			if a, pi, ok := v.peekAvailMin(cc, depth); ok {
				f := a.Add(cost)
				if best == -1 || f < bestFinish || (f == bestFinish && pi < best) {
					best, bestFinish, bestCost = pi, f, cost
				}
			}
		}
		if best < 0 {
			continue
		}
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: best})
		free--
		v.commitAvail(best, v.scr.avail[best].Add(bestCost), depth)
	}
	return res
}

// ScheduleIndexed implements IndexedPolicy: PowerEFT's candidates are
// idle supporting PEs only, all of a class sharing one (finish,
// energy) pair, so the slack window and energy minimum resolve per
// class; ties fall to the class whose lowest-index idle PE comes
// first, matching the slice scan's candidate order. On big.LITTLE the
// split "cpu" classes are exactly what makes the energy comparison
// meaningful — big and LITTLE carry different (cost, power) pairs.
func (p PowerEFT) ScheduleIndexed(now vtime.Time, v *View) Result {
	slack := p.Slack
	if slack < 1 {
		slack = 1
	}
	res := Result{Assignments: newAssignments()}
	P := v.numPEs()
	res.Ops += P
	v.beginIdleScratch()
	// An active power cap takes over-budget classes out of candidacy
	// (power is uniform within a class, so the cap resolves per class);
	// the per-pair charge below still covers every PE, matching the
	// slice scan that reads a PE's power before rejecting it.
	ready := v.Ready()
	meta := v.metas()
	ti := 0
	for ; ti < len(ready) && v.scr.idleTot > 0; ti++ {
		res.Ops += eftPairWeight * P
		classes := meta[ti].Classes
		costs := meta[ti].Costs
		var bestFinish vtime.Time = -1
		nCands := 0
		for _, cc := range classes {
			c := int(v.scr.idleCnt[cc])
			if c == 0 || (p.cap > 0 && v.power[cc] > p.cap) {
				continue
			}
			nCands += c
			f := now.Add(vtime.Duration(costs[cc]))
			if bestFinish < 0 || f < bestFinish {
				bestFinish = f
			}
		}
		if nCands == 0 {
			continue
		}
		res.Ops += nCands // slack-window scan over the candidate list
		limit := vtime.Time(float64(bestFinish-vtime.Time(0)) * slack)
		pick := -1
		bestE := 0.0
		first := -1 // lowest-index idle candidate, the no-pick fallback
		for _, cc := range classes {
			if v.scr.idleCnt[cc] == 0 || (p.cap > 0 && v.power[cc] > p.cap) {
				continue
			}
			pi := v.minIdleOfClass(int(cc))
			if first == -1 || pi < first {
				first = pi
			}
			cost := costs[cc]
			if now.Add(vtime.Duration(cost)) > limit {
				continue
			}
			e := float64(cost) * v.power[cc] * 1e-9
			if pick == -1 || e < bestE || (e == bestE && pi < pick) {
				pick, bestE = pi, e
			}
		}
		if pick == -1 {
			pick = first
		}
		res.Assignments = append(res.Assignments, Assignment{TaskIndex: ti, PEIndex: pick})
		v.takeIdle(pick)
	}
	// With the idle snapshot empty every later task has no candidate:
	// only its pair charge remains.
	res.Ops += (len(ready) - ti) * eftPairWeight * P
	return res
}
