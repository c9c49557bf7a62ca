// Package sim is the discrete-event simulation substrate the paper's
// evaluation runs on (Section 6.1): a virtual clock over an event heap,
// Poisson query arrivals shaped by a workload profile, FIFO provider
// service queues, periodic §4 metric sampling, and the autonomy machinery
// (departure rules of Section 6.3.2).
package sim

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evSample
	evDepartureCheck
	evSmooth
	evChurn
)

// event is one scheduled occurrence. seq breaks time ties FIFO so runs are
// fully deterministic.
type event struct {
	time float64
	seq  uint64
	kind eventKind
	// qid identifies the in-flight query for completion events, and the
	// scenario wave index for churn events.
	qid uint64
}

// before is the event order: by time, ties by seq. Every event gets its own
// seq, so the order is strict and total, and the sequence in which a heap
// pops a given schedule does not depend on how the heap is laid out.
func (a event) before(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events under before. It is typed:
// container/heap's Push(any) and Pop() any box every event on the way in
// and on the way out, a handful of allocations per simulated query.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s[right].before(s[child]) {
			child = right
		}
		if !s[child].before(s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

// schedule pushes an event, assigning it the next sequence number.
func (e *Engine) schedule(t float64, kind eventKind, qid uint64) {
	e.seq++
	e.events.push(event{time: t, seq: e.seq, kind: kind, qid: qid})
}
