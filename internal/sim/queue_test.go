package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// shiftStation is the station queue before the head-index FIFO: every
// dequeue shifts the waiting jobs down one slot. The tests below drive
// it and a real Station through the same workload and require the same
// observable behaviour (wake-ups are left off; they do not touch the
// queue).
type shiftStation struct {
	eng           *Engine
	servers, busy int
	queue         []stationJob
	maxQueue      int
	depths        []int // queue depth after every enqueue and dequeue
}

func (s *shiftStation) process(service time.Duration, done func()) {
	if service < 0 {
		service = 0
	}
	if s.busy < s.servers && len(s.queue) == 0 {
		s.start(stationJob{service: service, done: done})
		return
	}
	s.queue = append(s.queue, stationJob{service: service, done: done})
	s.maxQueue = max(s.maxQueue, len(s.queue))
	s.depths = append(s.depths, len(s.queue))
}

func (s *shiftStation) queueLen() int { return len(s.queue) }

func (s *shiftStation) start(j stationJob) {
	s.busy++
	s.eng.After(j.service, func() { s.complete(j.done) })
}

func (s *shiftStation) complete(done func()) {
	s.busy--
	if len(s.queue) > 0 && s.busy < s.servers {
		next := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.depths = append(s.depths, len(s.queue))
		s.start(next)
	}
	if done != nil {
		done()
	}
}

// depthProbe records StationQueue depths.
type depthProbe struct{ depths []int }

func (p *depthProbe) StationQueue(_ *Station, depth int)  { p.depths = append(p.depths, depth) }
func (p *depthProbe) StationBusy(*Station)                {}
func (p *depthProbe) StationIdle(*Station)                {}
func (p *depthProbe) StationWake(*Station, time.Duration) {}

// stationWorkload runs 2,000 jobs through submit: a burst of 40, then
// every completion callback submits zero to two more (a random walk of
// the queue depth), with service times from 0 to 6 µs. It returns one
// log line per completion: job, instant and the queue length the
// callback sees.
func stationWorkload(e *Engine, submit func(time.Duration, func()), qlen func() int) []string {
	r := NewRand(7)
	var log []string
	next := 0
	var job func()
	job = func() {
		id := next
		next++
		submit(time.Duration(r.Intn(7))*time.Microsecond, func() {
			log = append(log, fmt.Sprintf("%d@%v q=%d", id, e.Now(), qlen()))
			for k := r.Intn(3); k > 0 && next < 2000; k-- {
				job()
			}
		})
	}
	for range 40 {
		job()
	}
	e.Run()
	return log
}

// TestStationQueueMatchesCopyShift drives the head-index queue through
// completion-callback submissions across several compactions and
// checks service order, QueueLen, MaxQueue and every StationQueue probe
// depth against the copy-shift reference.
func TestStationQueueMatchesCopyShift(t *testing.T) {
	for _, servers := range []int{1, 3} {
		re := New(1)
		ref := &shiftStation{eng: re, servers: servers}
		want := stationWorkload(re, ref.process, ref.queueLen)

		e := New(1)
		s := NewStation(e, "q", servers)
		probe := &depthProbe{}
		s.Probe = probe
		compactions, maxCap := 0, 0
		submit := func(d time.Duration, done func()) {
			if len(s.queue) == cap(s.queue) && s.head > 0 {
				compactions++
			}
			s.Process(d, done)
			maxCap = max(maxCap, cap(s.queue))
		}
		got := stationWorkload(e, submit, s.QueueLen)

		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("servers=%d: completion %d is %q, copy-shift reference %q", servers, i, got[i], want[i])
				}
			}
			t.Fatalf("servers=%d: %d completions, reference %d", servers, len(got), len(want))
		}
		if len(got) != 2000 || s.Completed != 2000 {
			t.Fatalf("servers=%d: %d completions logged, Completed=%d, want 2000", servers, len(got), s.Completed)
		}
		if s.MaxQueue != ref.maxQueue {
			t.Fatalf("servers=%d: MaxQueue = %d, reference %d", servers, s.MaxQueue, ref.maxQueue)
		}
		if !slices.Equal(probe.depths, ref.depths) {
			t.Fatalf("servers=%d: probe depths diverge from the reference (%d vs %d samples)",
				servers, len(probe.depths), len(ref.depths))
		}
		if compactions < 3 {
			t.Fatalf("servers=%d: workload compacted the queue %d times, want at least 3", servers, compactions)
		}
		// Compaction reuses the backing array: it never needs more than
		// twice the deepest queue.
		if maxCap > 2*s.MaxQueue {
			t.Fatalf("servers=%d: queue capacity reached %d for a max depth of %d", servers, maxCap, s.MaxQueue)
		}
		if s.QueueLen() != 0 || len(s.queue) != 0 {
			t.Fatalf("servers=%d: drained station still holds %d slots", servers, len(s.queue))
		}
	}
}

// TestStationSteadyQueueZeroAllocs pins a station held at a queue depth
// of 32: each iteration submits one job and completes one, so the head
// index walks the backing array and compaction, not growth, makes room.
func TestStationSteadyQueueZeroAllocs(t *testing.T) {
	e := New(1)
	s := NewStation(e, "steady", 1)
	for range 33 { // one in service, 32 waiting
		s.Process(time.Microsecond, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Process(time.Microsecond, nil)
		e.step()
	})
	if allocs != 0 {
		t.Fatalf("steady queue allocates %.1f objects/op, want 0", allocs)
	}
	if s.QueueLen() != 32 || cap(s.queue) > 4*32 {
		t.Fatalf("QueueLen = %d, cap = %d; want depth 32 in a bounded array", s.QueueLen(), cap(s.queue))
	}
}

// TestStationReleasesTakenJobs: once a queued job is taken into
// service, its slot no longer references the callback, even while
// later jobs keep the queue from resetting.
func TestStationReleasesTakenJobs(t *testing.T) {
	e := New(1)
	s := NewStation(e, "gc", 1)
	defer runtime.KeepAlive(s) // the station must outlive the GC checks
	collected := make(chan struct{})
	func() {
		obj := new([64]byte)
		runtime.SetFinalizer(obj, func(*[64]byte) { close(collected) })
		s.Process(time.Microsecond, nil) // takes the server
		s.Process(time.Microsecond, func() { obj[0]++ })
	}()
	for range 4 {
		s.Process(time.Microsecond, nil)
	}
	e.step() // the first job completes; the obj job starts
	e.step() // the obj job completes
	if s.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d, want 3", s.QueueLen())
	}
	for range 50 {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a finished job's callback is still reachable from the station queue")
}
