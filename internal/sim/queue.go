package sim

import "repro/internal/types"

// event is a queued delivery. sent is the time the message was handed to
// the network — kept alongside the delivery time so the telemetry plane can
// charge queue-to-delivery latency without a side table.
type event struct {
	at   Time
	seq  uint64
	sent Time
	msg  types.Message
}

// before is the queue's strict total order: time first, then the unique
// per-send sequence number. Because seq never repeats, no two events
// compare equal, so any correct priority queue pops the one and only
// ascending (at, seq) sequence.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Geometry of calendarQueue's near tier: ringWidth consecutive ticks, one
// bucket each (a power of two, so a tick's bucket is at&ringMask), every
// bucket a FIFO of chunkLen-event chunks.
const (
	ringWidth = 256
	ringMask  = ringWidth - 1
	chunkLen  = 32
)

// chunk is one fixed block of a bucket's FIFO.
type chunk struct {
	ev   [chunkLen]event
	next *chunk
}

// bucket is the FIFO of the near-tier events due at one tick: read at
// head.ev[r], append at tail.ev[w]. An empty bucket holds no chunk.
type bucket struct {
	head, tail *chunk
	r, w       int32
}

// calendarQueue is the simulator's event queue: a two-tier calendar queue
// popping in strict (at, seq) order.
//
//   - The near tier is a ring of per-tick buckets covering
//     [base, base+ringWidth). Every event in it lies in that window, so a
//     bucket holds one tick's events only.
//   - The far tier is the 4-ary heap, holding every other event: those due
//     at or beyond base+ringWidth, and those due before base. The latter
//     arise after a far-tier pop, which sets the clock below base; a push
//     due in [now, base) must not be ring-indexed, since its bucket may hold
//     a later tick's events.
//
// Why the order is the heap's: the Network stamps every push with a seq
// larger than any before it, so appending keeps each bucket in seq order,
// and the head of the first non-empty bucket is the near tier's (at, seq)
// minimum. pop returns the smaller of that head and the far-tier top, which
// is the minimum of the whole queue. base advances only past empty buckets,
// and is reset to the popped time only when the ring is empty, so the
// window invariant holds throughout.
//
// Chunks come from and go back to a per-queue free list, so a run reaches
// its high-water chunk count once and never allocates on the delivery path
// again; a drained bucket returns its chunk at once.
type calendarQueue struct {
	ring [ringWidth]bucket
	base Time
	near int // events in the ring
	far  eventQueue
	free *chunk
}

// Len returns the number of queued events.
func (q *calendarQueue) Len() int { return q.near + q.far.Len() }

// push inserts an event; its seq must exceed every seq pushed before.
func (q *calendarQueue) push(e event) {
	// One unsigned compare rejects both at < base and at >= base+ringWidth.
	if uint64(e.at-q.base) >= ringWidth {
		q.far.push(e)
		return
	}
	b := &q.ring[e.at&ringMask]
	if b.tail == nil || b.w == chunkLen {
		c := q.free
		if c != nil {
			q.free, c.next = c.next, nil
		} else {
			c = new(chunk)
		}
		if b.tail == nil {
			b.head = c
		} else {
			b.tail.next = c
		}
		b.tail, b.w = c, 0
	}
	b.tail.ev[b.w] = e
	b.w++
	q.near++
}

// pop removes and returns the minimum event. It must not be called on an
// empty queue.
func (q *calendarQueue) pop() event {
	if q.near == 0 {
		e := q.far.pop()
		q.base = e.at
		return e
	}
	b := &q.ring[q.base&ringMask]
	for b.head == nil {
		q.base++
		b = &q.ring[q.base&ringMask]
	}
	e := b.head.ev[b.r]
	if q.far.Len() > 0 && q.far.a[0].before(e) {
		return q.far.pop()
	}
	b.r++
	q.near--
	switch {
	case b.head == b.tail && b.r == b.w:
		q.release(b.head, b.w)
		*b = bucket{}
	case b.r == chunkLen:
		c := b.head
		b.head, b.r = c.next, 0
		q.release(c, chunkLen)
	}
	return e
}

// release returns a consumed chunk to the free list, first dropping the
// payload references of its used slots for the GC.
func (q *calendarQueue) release(c *chunk, used int32) {
	clear(c.ev[:used])
	c.next = q.free
	q.free = c
}

// eventQueue is a concrete-typed 4-ary min-heap on (at, seq): the calendar
// queue's far tier. Compared to a container/heap implementation it removes
// the two per-operation interface boxings (heap.Push(x any) and heap.Pop()
// any, one allocation each) and halves tree depth, at the cost of comparing
// up to four children per sift-down level. The backing array is retained
// across pops, so it never allocates once grown to its high-water size.
type eventQueue struct {
	a []event
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.a) }

// push inserts an event.
func (q *eventQueue) push(e event) {
	q.a = append(q.a, e)
	// Sift up.
	i := len(q.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.a[i].before(q.a[parent]) {
			break
		}
		q.a[i], q.a[parent] = q.a[parent], q.a[i]
		i = parent
	}
}

// pop removes and returns the minimum event. It must not be called on an
// empty queue.
func (q *eventQueue) pop() event {
	top := q.a[0]
	last := len(q.a) - 1
	q.a[0] = q.a[last]
	q.a[last] = event{} // drop the payload reference for the GC
	q.a = q.a[:last]
	// Sift down, choosing the smallest of up to four children.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if q.a[c].before(q.a[min]) {
				min = c
			}
		}
		if !q.a[min].before(q.a[i]) {
			break
		}
		q.a[i], q.a[min] = q.a[min], q.a[i]
		i = min
	}
	return top
}
