// Fixtures for the metafreeze analyzer: a *sched.ReadyMeta handed to
// View.PushReady is retained by the ready window and frozen until the
// task leaves it.
package fixture

import "repro/internal/sched"

// True positive: one hoisted variable, one pointer — every iteration
// pushes the same address and each overwrite mutates every queued
// entry retroactively.
func pushHoisted(v *sched.View, tasks []sched.Task) {
	var m sched.ReadyMeta
	for _, t := range tasks {
		m = sched.ReadyMeta{Classes: []int32{0}}
		v.PushReady(t, &m) // want `declared outside it`
	}
}

// Near miss: a fresh ReadyMeta per iteration owns its address; the
// pushed pointers stay distinct and are never rewritten.
func pushLoopLocal(v *sched.View, tasks []sched.Task) {
	for _, t := range tasks {
		m := sched.ReadyMeta{Classes: []int32{0}}
		v.PushReady(t, &m)
	}
}

// True positive: the window retains &m, so this write edits in-window
// metadata.
func writeAfterPush(v *sched.View, t sched.Task) {
	m := sched.ReadyMeta{Classes: []int32{0}}
	v.PushReady(t, &m)
	m.NumChoices = 3 // want `after its pointer escaped`
}

// True positive: writing through an escaped pointer variable.
func writeThroughPointer(v *sched.View, t sched.Task, m *sched.ReadyMeta) {
	v.PushReady(t, m)
	m.Classes = []int32{1} // want `after its pointer escaped`
}

// Near miss: repointing the pointer variable afterwards touches
// nothing the window retains.
func repointAfterPush(v *sched.View, t sched.Task, m *sched.ReadyMeta) {
	v.PushReady(t, m)
	m = nil
	_ = m
}

// Near miss: initialization writes before the push are the normal
// build-then-freeze sequence.
func writeBeforePush(v *sched.View, t sched.Task) {
	var m sched.ReadyMeta
	m.Classes = []int32{2}
	m.NumChoices = 1
	v.PushReady(t, &m)
}
