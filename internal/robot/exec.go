package robot

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/inventory"
	"repro/internal/sim"
)

// Execute implements exec.Executor: the claimed unit becomes busy, the
// primitive sequence plays out over virtual time, and done receives the
// outcome. It panics if the unit is unavailable or cannot reach the work —
// the scheduler must check first.
func (f *Fleet) Execute(a exec.Actor, t exec.Task, done func(exec.Outcome)) {
	u := a.(*Unit)
	loc := t.Port().Device.Loc
	if !u.Available() {
		panic(fmt.Sprintf("robot: %s not available", u))
	}
	if !u.CanReach(loc) {
		panic(fmt.Sprintf("robot: %s cannot reach %s", u, loc))
	}
	u.busy = true
	run := &taskRun{
		f: f, u: u, t: t, done: done,
		out: exec.Outcome{Actor: u.name, Task: t, Started: f.eng.Now()},
	}
	if !CanPerform(t.Action) {
		run.finish(false, true, "action beyond robotic capability")
		return
	}
	run.next(f.TravelTime(u, loc), "robot-navigate", func() {
		u.Loc = loc
		run.approach()
	})
}

// taskRun threads one task's primitive sequence through the event loop.
type taskRun struct {
	f   *Fleet
	u   *Unit
	t   exec.Task
	out exec.Outcome
	res faults.RepairResult // the last adjudicated repair; finish copies Fixed and Masked

	inRepair bool
	done     func(exec.Outcome)
}

// next schedules fn after d as the named engine event.
func (r *taskRun) next(d sim.Time, name string, fn func()) {
	r.f.eng.After(d, name, fn)
}

// dur samples a primitive duration.
func (r *taskRun) dur(dist sim.Dist) sim.Time {
	return sim.SampleDuration(dist, r.f.rng())
}

// primitiveOK rolls mechanical reliability: a failed primitive is retried
// once; a second failure aborts the task.
func (r *taskRun) primitiveOK() bool {
	rng := r.f.rng()
	if !rng.Bernoulli(r.f.cfg.PrimitiveFailProb) {
		return true
	}
	return !rng.Bernoulli(r.f.cfg.PrimitiveFailProb)
}

// approach: setup at the rack, part cables, identify the component.
func (r *taskRun) approach() {
	r.next(r.dur(r.f.cfg.NavSetup)+r.dur(r.f.cfg.PartCables), "robot-approach", func() {
		// Parting cables is a gentle touch with cascade risk.
		r.out.Touched += r.f.inj.Touch(r.t.Port(), true)
		r.identify(0)
	})
}

func (r *taskRun) identify(attempt int) {
	r.next(r.dur(r.f.cfg.Identify), "robot-identify", func() {
		occl := r.f.net.OcclusionAt(r.t.Port())
		// Recognition failure is systematic (unfamiliar backend variant),
		// so retries are correlated rather than independent draws.
		if r.f.vis.IdentifyWithRetries(r.t.Port(), occl, r.f.cfg.MaxIdentifyRetries) {
			r.manipulate()
			return
		}
		r.finish(false, true, "perception could not identify component")
	})
}

// manipulate performs the action-specific physical sequence.
func (r *taskRun) manipulate() {
	if !r.primitiveOK() {
		r.abortMechanical("grip failure")
		return
	}
	// Consumables and spares are checked before taking the link down.
	if r.f.pool != nil {
		switch r.t.Action {
		case faults.ReplaceXcvr:
			if !r.f.pool.Take(inventory.PartXcvr) {
				r.out.Stockout = true
				r.finish(false, false, "no spare transceiver in stock")
				return
			}
		case faults.Clean:
			if !r.f.pool.Take(inventory.PartCleaningSupplies) {
				r.out.Stockout = true
				r.finish(false, false, "no cleaning supplies in stock")
				return
			}
		}
	}
	r.f.inj.BeginRepair(r.t.Link)
	r.inRepair = true
	unplug := r.dur(r.f.cfg.Unplug)
	switch r.t.Action {
	case faults.Reseat:
		r.next(unplug+r.dur(r.f.cfg.ReseatDwell)+r.dur(r.f.cfg.Plug), "robot-reseat", func() {
			r.out.Touched += r.f.inj.Touch(r.t.Port(), true)
			r.applyAndFinish(faults.Reseat)
		})
	case faults.Clean:
		r.next(unplug, "robot-detach", func() { r.cleanCycle(0) })
	case faults.ReplaceXcvr:
		r.next(unplug+r.dur(r.f.cfg.SwapSpare)+r.dur(r.f.cfg.CleanPass)+r.dur(r.f.cfg.Plug), "robot-swap", func() {
			r.applyAndFinish(faults.ReplaceXcvr)
		})
	}
}

// cleanCycle is the cleaning unit's workflow: inspect, clean if needed,
// verify; retry until passing or give up to a human (§3.3.2).
func (r *taskRun) cleanCycle(attempt int) {
	if !r.primitiveOK() {
		r.abortMechanical("cleaning actuator failure")
		return
	}
	st := r.f.inj.State(r.t.Link.ID)
	pre := r.f.vis.InspectEndFace(r.t.Link.Cable, st.Ends[r.t.End].Dirt)
	passes := sim.Time(0)
	if !pre.Pass {
		passes = r.dur(r.f.cfg.CleanPass) + r.dur(r.f.cfg.CleanPass) // wet + dry
	}
	r.next(pre.Duration+passes, "robot-clean", func() {
		if r.inRepair {
			r.res = r.f.inj.FinishRepair(r.t.Link, faults.Clean, r.t.End)
			r.inRepair = false
		}
		// Verify: re-inspect the (possibly now clean) end.
		st := r.f.inj.State(r.t.Link.ID)
		post := r.f.vis.InspectEndFace(r.t.Link.Cable, st.Ends[r.t.End].Dirt)
		r.next(post.Duration, "robot-verify", func() {
			if post.Pass {
				if r.res.Fixed {
					r.reassemble()
					return
				}
				// The end-face verifies clean but the link is still broken:
				// the cleaning was physically completed and the fault lies
				// elsewhere — a ladder matter, not a robot failure.
				r.reassembleThen(func() {
					r.finish(true, false, r.res.Note)
				})
				return
			}
			if attempt < r.f.cfg.MaxCleanRetries {
				// Another cleaning round: re-open the repair.
				r.f.inj.BeginRepair(r.t.Link)
				r.inRepair = true
				r.cleanCycle(attempt + 1)
				return
			}
			// The robot cannot get the end-face to pass inspection: request
			// human support (§3.3.2).
			r.reassembleThen(func() {
				r.finish(r.res.Fixed, true, "verification failed after retries")
			})
		})
	})
}

// applyAndFinish adjudicates the action and closes out with replug timing
// already spent.
func (r *taskRun) applyAndFinish(a faults.Action) {
	r.res = r.f.inj.FinishRepair(r.t.Link, a, r.t.End)
	r.inRepair = false
	r.finish(true, false, r.res.Note)
}

// reassemble replugs after cleaning and finishes successfully.
func (r *taskRun) reassemble() {
	r.reassembleThen(func() {
		r.finish(true, false, "")
	})
}

func (r *taskRun) reassembleThen(fn func()) {
	r.next(r.dur(r.f.cfg.Plug), "robot-reassemble", func() {
		r.out.Touched += r.f.inj.Touch(r.t.Port(), true)
		fn()
	})
}

// abortMechanical handles a primitive failure: release the hardware and
// possibly mark the unit broken.
func (r *taskRun) abortMechanical(note string) {
	if r.inRepair {
		r.f.inj.AbortRepair(r.t.Link)
		r.inRepair = false
	}
	if r.f.rng().Bernoulli(r.f.cfg.BreakProb) {
		r.u.broken = true
		r.f.eng.After(r.f.cfg.RepairTime, "robot-repaired", func() {
			r.u.broken = false
		})
	}
	r.finish(false, true, note)
}

// finish releases the unit, updates battery state and delivers the outcome.
func (r *taskRun) finish(completed, needsHuman bool, note string) {
	if r.inRepair {
		r.f.inj.AbortRepair(r.t.Link)
		r.inRepair = false
	}
	r.out.Completed = completed
	r.out.Fixed = r.res.Fixed
	r.out.Masked = r.res.Masked
	r.out.NeedsHuman = needsHuman
	r.out.Note = note
	r.out.Finished = r.f.eng.Now()
	r.u.busy = false
	r.u.BusyTime += r.out.Duration()
	r.u.tasks++
	if r.f.cfg.BatteryTasks > 0 && r.u.tasks >= r.f.cfg.BatteryTasks && !r.u.broken {
		r.u.tasks = 0
		r.u.charging = true
		r.f.eng.After(r.f.cfg.ChargeTime, "robot-charged", func() {
			r.u.charging = false
		})
	}
	if r.done != nil {
		r.done(r.out)
	}
}
