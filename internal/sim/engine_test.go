package sim

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(1, func() { order = append(order, 10) }) // same time, later seq
	e.Schedule(0, func() { order = append(order, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 10, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("Now = %v, want 2", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(1, func() { fired = true })
	e.Schedule(0.5, func() { tm.Cancel() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakeTimes []float64
	e.Go("a", func(p *Proc) {
		p.Sleep(1)
		wakeTimes = append(wakeTimes, e.Now())
		p.Sleep(2)
		wakeTimes = append(wakeTimes, e.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakeTimes) != 2 || wakeTimes[0] != 1 || wakeTimes[1] != 3 {
		t.Fatalf("wakeTimes = %v", wakeTimes)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					trace = append(trace, name)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("nondeterministic length")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: trace %v != %v", i, got, first)
				}
			}
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		var c Cond
		c.Wait(p, "never")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	wg.Add(2)
	doneAt := -1.0
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = e.Now()
	})
	e.Go("w1", func(p *Proc) { p.Sleep(5); wg.Done() })
	e.Go("w2", func(p *Proc) { p.Sleep(3); wg.Done() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 5 {
		t.Fatalf("waiter finished at %v, want 5", doneAt)
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	var c Cond
	var order []string
	e.Go("w1", func(p *Proc) { c.Wait(p, "q"); order = append(order, "w1") })
	e.Go("w2", func(p *Proc) { c.Wait(p, "q"); order = append(order, "w2") })
	e.Go("signaler", func(p *Proc) {
		p.Sleep(1)
		c.Signal()
		p.Sleep(1)
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "w1" || order[1] != "w2" {
		t.Fatalf("order = %v", order)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	if _, err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestPSResourceSingleFlow(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", 100, 0) // 100 units/s
	var done float64
	e.Go("u", func(p *Proc) {
		r.Use(p, 250, "io")
		done = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 2.5, 1e-9) {
		t.Fatalf("done at %v, want 2.5", done)
	}
}

func TestPSResourceFairSharing(t *testing.T) {
	// Two equal flows on a 100 u/s resource: both finish at 2s for 100 units
	// each (each gets 50 u/s).
	e := NewEngine()
	r := NewPSResource(e, "disk", 100, 0)
	var t1, t2 float64
	e.Go("a", func(p *Proc) { r.Use(p, 100, "io"); t1 = e.Now() })
	e.Go("b", func(p *Proc) { r.Use(p, 100, "io"); t2 = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(t1, 2, 1e-9) || !almostEqual(t2, 2, 1e-9) {
		t.Fatalf("t1=%v t2=%v, want 2,2", t1, t2)
	}
}

func TestPSResourceShortFlowReleasesCapacity(t *testing.T) {
	// Flow A: 300 units. Flow B: 50 units. Both start at 0 on 100 u/s.
	// Phase 1: both at 50 u/s until B finishes at t=1 (B did 50).
	// A has 250 left, then runs at 100 u/s -> finishes at t=3.5.
	e := NewEngine()
	r := NewPSResource(e, "disk", 100, 0)
	var ta, tb float64
	e.Go("a", func(p *Proc) { r.Use(p, 300, "io"); ta = e.Now() })
	e.Go("b", func(p *Proc) { r.Use(p, 50, "io"); tb = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tb, 1, 1e-9) {
		t.Fatalf("tb=%v, want 1", tb)
	}
	if !almostEqual(ta, 3.5, 1e-9) {
		t.Fatalf("ta=%v, want 3.5", ta)
	}
}

func TestPSResourcePerFlowCap(t *testing.T) {
	// CPU with 4 cores, per-flow cap 1 core. One flow of 2 core-seconds
	// takes 2 seconds even though the resource has spare capacity.
	e := NewEngine()
	cpu := NewPSResource(e, "cpu", 4, 1)
	var done float64
	e.Go("t", func(p *Proc) {
		cpu.Use(p, 2, "compute")
		done = e.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(done, 2, 1e-9) {
		t.Fatalf("done=%v, want 2", done)
	}
}

func TestPSResourceManyFlowsOvercommit(t *testing.T) {
	// 8 flows of 1 core-second each on a 4-core CPU: each runs at 0.5
	// cores, all finish at t=2.
	e := NewEngine()
	cpu := NewPSResource(e, "cpu", 4, 1)
	var finish []float64
	for i := 0; i < 8; i++ {
		e.Go("t", func(p *Proc) {
			cpu.Use(p, 1, "compute")
			finish = append(finish, e.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finish {
		if !almostEqual(f, 2, 1e-9) {
			t.Fatalf("finish times %v, want all 2", finish)
		}
	}
}

func TestPSResourceBusyIntegral(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", 100, 0)
	e.Go("a", func(p *Proc) { r.Use(p, 100, "io") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 100 units over 1s at 100 u/s -> integral 100.
	if got := r.BusyIntegral(); !almostEqual(got, 100, 1e-6) {
		t.Fatalf("busy integral = %v, want 100", got)
	}
}

func TestPSResourceAsyncStart(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, "disk", 100, 0)
	var doneAt float64
	r.Start(200, func() { doneAt = e.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almostEqual(doneAt, 2, 1e-9) {
		t.Fatalf("async done at %v, want 2", doneAt)
	}
}

func TestMemoryAllocFree(t *testing.T) {
	m := NewMemory("node0", 1000)
	if err := m.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(500); err == nil {
		t.Fatal("expected OOM")
	} else if _, ok := err.(*OOMError); !ok {
		t.Fatalf("error type %T, want *OOMError", err)
	}
	m.Free(600)
	if err := m.Alloc(1000); err != nil {
		t.Fatal(err)
	}
	if m.Peak() != 1000 {
		t.Fatalf("peak = %v", m.Peak())
	}
}

func TestMemoryMustAllocOvercommits(t *testing.T) {
	m := NewMemory("n", 100)
	m.MustAlloc(500)
	if m.Used() != 500 {
		t.Fatalf("used = %v", m.Used())
	}
	m.Free(500)
	if m.Used() != 0 {
		t.Fatalf("used = %v after free", m.Used())
	}
}

// TestTimerCancelShrinksHeap pins the O(log n) cancel: cancelled timers
// must leave the event heap immediately instead of rotting as ghost
// entries until their deadline. Under speculation/preemption churn the
// ghost population previously grew without bound.
func TestTimerCancelShrinksHeap(t *testing.T) {
	e := NewEngine()
	const n = 10000
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		timers[i] = e.Schedule(1e6+float64(i), func() {})
	}
	if got := len(e.events); got != n {
		t.Fatalf("heap size = %d, want %d", got, n)
	}
	for i, tm := range timers {
		if i%10 != 0 { // cancel 90%
			tm.Cancel()
		}
	}
	if got := len(e.events); got != n/10 {
		t.Fatalf("heap size after cancel churn = %d, want %d (ghost entries rotting)", got, n/10)
	}
	// Double-cancel and cancel-after-fire are no-ops.
	timers[1].Cancel()
	fired := 0
	e.Schedule(0, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	timers[0].Cancel() // already fired
	if len(e.events) != 0 {
		t.Fatalf("heap not empty after run: %d", len(e.events))
	}
}

// TestRunUntilTimeBackwardsGuard pins the RunUntil half of the
// time-went-backwards check: an event stamped before the current clock
// must error out, exactly as in Run.
func TestRunUntilTimeBackwardsGuard(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {
		// Forge a corrupted event in the past (Schedule clamps negative
		// delays, so build the timer directly, as a kernel bug would).
		bad := &Timer{eng: e, fn: func() {}, at: 1, seq: e.seq, index: -1}
		e.seq++
		e.events = append(e.events, bad)
		bad.index = len(e.events) - 1
	})
	if _, err := e.RunUntil(10); err == nil {
		t.Fatal("RunUntil accepted an event in the past")
	}
}

// TestSleepAfterEarlyWake re-sleeps a proc whose Sleep was cut short by
// an external Unpark: the reusable sleep timer must be superseded, not
// pushed into the event heap a second time (which would alias two heap
// slots and hang or corrupt the schedule).
func TestSleepAfterEarlyWake(t *testing.T) {
	e := NewEngine()
	var wakes []float64
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(10) // cut short at t=1 by the unpark below
		wakes = append(wakes, e.Now())
		p.Sleep(5) // must supersede the still-pending t=10 wake-up
		wakes = append(wakes, e.Now())
	})
	e.Schedule(1, func() { p.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 2 || wakes[0] != 1 || wakes[1] != 6 {
		t.Fatalf("wakes = %v, want [1 6]", wakes)
	}
	if len(e.events) != 0 {
		t.Fatalf("ghost events left in heap: %d", len(e.events))
	}
}
