package sim

import "time"

// Station models a serial processing resource: a pool of identical servers
// (think: the vCPUs of a VM, the host CPUs, or a single vhost worker
// thread) in front of a FIFO queue. Work submitted with Process occupies
// one server for the service duration; excess work queues. Enqueue and
// dequeue cost O(1) whatever the queue depth: the queue is a slice read
// from a head index, compacted only when its backing array fills.
//
// Throughput of a pipeline of stations is limited by its most loaded
// station, and latency is the sum of waiting plus service times — exactly
// the mechanics that produce the paper's nested-virtualization numbers.
type Station struct {
	eng     *Engine
	name    string
	servers int
	busy    int
	// queue[head:] holds the waiting jobs in FIFO order. Taken slots
	// are zeroed so their callbacks can be collected; the slice resets
	// to empty when the last job is taken.
	queue []stationJob
	head  int

	// BusyTime accumulates total server-occupied time, for utilization
	// reports (busy server-seconds, so it can exceed elapsed time when
	// servers > 1).
	BusyTime time.Duration
	// Completed counts jobs fully served.
	Completed uint64
	// MaxQueue records the high-water mark of the queue length.
	MaxQueue int
	// Wakeups counts jobs that paid a wake-up penalty.
	Wakeups uint64

	// Wake-up model: a station that has been idle longer than the
	// threshold pays an extra delay before serving the next job —
	// the halt/IPI/VM-entry cost of waking a vCPU, or the scheduler
	// wake-up of a worker thread. Streaming work keeps stations busy
	// and never pays it; sparse request/response traffic does, which
	// is what gives RR latencies their floor and their variance.
	wakeMean, wakeJitter, wakeThreshold time.Duration
	idleSince                           Time

	// Probe, when set, observes queueing and busy/idle transitions
	// (telemetry instruments). Nil-checked on every path: disabled
	// stations pay one pointer compare and zero allocations.
	Probe StationProbe
}

type stationJob struct {
	service time.Duration
	done    func()
}

// NewStation creates a station with the given number of parallel servers.
// servers < 1 is treated as 1.
func NewStation(eng *Engine, name string, servers int) *Station {
	if servers < 1 {
		servers = 1
	}
	return &Station{eng: eng, name: name, servers: servers}
}

// Name returns the station's diagnostic name.
func (s *Station) Name() string { return s.name }

// Servers returns the number of parallel servers.
func (s *Station) Servers() int { return s.servers }

// QueueLen returns the number of jobs waiting (not in service).
func (s *Station) QueueLen() int { return len(s.queue) - s.head }

// SetWakeup configures the idle wake-up penalty: after idling longer
// than threshold, the next job's service is extended by a sample of
// Normal(mean, jitter) (floored at mean/4).
func (s *Station) SetWakeup(mean, jitter, threshold time.Duration) {
	s.wakeMean, s.wakeJitter, s.wakeThreshold = mean, jitter, threshold
}

// Process submits a job needing the given service time; done runs when
// the job completes (may be nil). Zero or negative service completes
// after any queued work, still in FIFO order, with no server time.
func (s *Station) Process(service time.Duration, done func()) {
	if service < 0 {
		service = 0
	}
	// A job may only jump straight onto a server when no earlier work is
	// waiting — otherwise submissions made from completion callbacks
	// would cut ahead of the FIFO queue and starve it.
	if s.busy < s.servers && s.QueueLen() == 0 {
		if s.wakeMean > 0 && s.busy == 0 && s.eng.now-s.idleSince >= s.wakeThreshold {
			w := time.Duration(s.eng.rng.Normal(float64(s.wakeMean), float64(s.wakeJitter)))
			if w < s.wakeMean/4 {
				w = s.wakeMean / 4
			}
			service += w
			s.Wakeups++
			if s.Probe != nil {
				s.Probe.StationWake(s, w)
			}
		}
		s.start(stationJob{service: service, done: done})
		return
	}
	if len(s.queue) == cap(s.queue) && s.head > 0 {
		// Full backing array with taken slots in front: slide the
		// waiting jobs down instead of growing.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue = s.queue[:n]
		s.head = 0
	}
	s.queue = append(s.queue, stationJob{service: service, done: done})
	depth := s.QueueLen()
	if depth > s.MaxQueue {
		s.MaxQueue = depth
	}
	if s.Probe != nil {
		s.Probe.StationQueue(s, depth)
	}
}

func (s *Station) start(j stationJob) {
	s.busy++
	if s.busy == 1 && s.Probe != nil {
		s.Probe.StationBusy(s)
	}
	s.BusyTime += j.service
	// Completion is dispatched through the event's station field, not a
	// closure — this is the engine's hottest allocation site otherwise.
	s.eng.afterJob(j.service, s, j.done)
}

// complete finishes one in-service job: it is invoked by the engine
// dispatcher for events scheduled via afterJob.
func (s *Station) complete(done func()) {
	s.busy--
	s.Completed++
	if s.busy == 0 {
		s.idleSince = s.eng.now
		if s.Probe != nil {
			s.Probe.StationIdle(s)
		}
	}
	// Claim the next queued job before running the completion
	// callback: work the callback submits must line up behind it.
	if s.head < len(s.queue) && s.busy < s.servers {
		next := s.queue[s.head]
		s.queue[s.head] = stationJob{} // release the callback
		s.head++
		if s.head == len(s.queue) {
			s.queue, s.head = s.queue[:0], 0
		}
		if s.Probe != nil {
			s.Probe.StationQueue(s, s.QueueLen())
		}
		s.start(next)
	}
	if done != nil {
		done()
	}
}

// Utilization returns BusyTime divided by (elapsed × servers), the mean
// fraction of server capacity in use since the start of the simulation.
func (s *Station) Utilization() float64 {
	elapsed := s.eng.Now()
	if elapsed <= 0 {
		return 0
	}
	return float64(s.BusyTime) / (float64(elapsed) * float64(s.servers))
}
