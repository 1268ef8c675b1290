package sync2

// Queue is a head-indexed FIFO — the queue shape the transports'
// inboxes and the optimizer's waiting lists share. Pop advances a head
// index instead of re-slicing, so the backing array keeps its capacity
// across push/pop cycles and a steady stream recycles one array instead
// of reallocating. Every vacated slot is cleared, so no pointer outlives
// its pop, and the slice resets when the queue fully drains. Under a
// sustained backlog that reset never fires, so pushes also slide the
// live tail down once the dead prefix dominates: memory follows live
// depth, not total throughput.
//
// The zero value is an empty queue. A Queue is not safe for concurrent
// use; callers guard it with their own lock.
type Queue[T any] struct {
	items []T
	head  int
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	q.compact()
	q.items = append(q.items, v)
}

// PushRun appends a whole run in order.
func (q *Queue[T]) PushRun(run []T) {
	q.compact()
	q.items = append(q.items, run...)
}

// Head returns the oldest entry without removing it, or the zero value
// when the queue is empty.
func (q *Queue[T]) Head() T {
	if q.head == len(q.items) {
		var zero T
		return zero
	}
	return q.items[q.head]
}

// Pop removes and returns the oldest entry, or the zero value when the
// queue is empty.
func (q *Queue[T]) Pop() T {
	var zero T
	if q.head == len(q.items) {
		return zero
	}
	v := q.items[q.head]
	q.items[q.head] = zero // the consumer owns it now; drop the queue's alias
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// PopRun pops up to len(into) entries, oldest first, into the prefix of
// into and returns how many it wrote.
func (q *Queue[T]) PopRun(into []T) int {
	var zero T
	n := copy(into, q.items[q.head:])
	for i := q.head; i < q.head+n; i++ {
		q.items[i] = zero
	}
	q.head += n
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return n
}

// Live returns the queued entries, oldest first, as a view into the
// queue's storage. Callers may reorder entries in place — the
// simulator's wire keeps its inbox sorted by arrival time this way —
// but the view is only valid until the next Push, PushRun, Pop or
// PopRun.
func (q *Queue[T]) Live() []T { return q.items[q.head:] }

// compact reclaims the consumed prefix once it dominates the slice,
// clearing the vacated slots.
func (q *Queue[T]) compact() {
	if q.head == 0 || q.head < len(q.items)-q.head || q.head < 32 {
		return
	}
	n := copy(q.items, q.items[q.head:])
	clear(q.items[n:])
	q.items, q.head = q.items[:n], 0
}
