package sync2

import "testing"

// TestQueue drives the head-indexed FIFO through scripted mixes of Push,
// PushRun, Pop and PopRun, checking order against a plain slice model
// after every step, then the queue's storage invariants.
func TestQueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  int
		// step performs operation i; push and pop feed the model check.
		step func(i int, q *Queue[*int], push func(...int), pop func(n int))
		// maxCap bounds the backing array at the end, 0 for no bound.
		maxCap int
	}{
		{
			// Pop two of every three pushes: a backlog that grows slowly
			// and exercises compaction on the way.
			name: "two-of-three",
			ops:  1000,
			step: func(i int, q *Queue[*int], push func(...int), pop func(int)) {
				push(i)
				if i%3 != 0 {
					pop(1)
				}
			},
		},
		{
			// The consumer stays one element behind, so the queue never
			// fully drains and the drain-time reset never fires: memory
			// must follow live depth, not total throughput.
			name: "depth-one-backlog",
			ops:  100_000,
			step: func(i int, q *Queue[*int], push func(...int), pop func(int)) {
				push(i)
				if q.Len() > 1 {
					pop(1)
				}
			},
			maxCap: 1024,
		},
		{
			// Runs in, runs out, of mismatched sizes.
			name: "runs",
			ops:  2000,
			step: func(i int, q *Queue[*int], push func(...int), pop func(int)) {
				push(3*i, 3*i+1, 3*i+2)
				pop(1 + i%5)
			},
		},
		{
			// Single pushes drained by runs, runs drained singly.
			name: "mixed",
			ops:  3000,
			step: func(i int, q *Queue[*int], push func(...int), pop func(int)) {
				if i%2 == 0 {
					push(2 * i)
					pop(2)
				} else {
					push(2*i, 2*i+1)
					pop(1)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue[*int]
			var model []int
			run := make([]*int, 8)
			push := func(vs ...int) {
				ptrs := make([]*int, len(vs))
				for i := range vs {
					v := vs[i]
					ptrs[i] = &v
				}
				if len(ptrs) == 1 {
					q.Push(ptrs[0])
				} else {
					q.PushRun(ptrs)
				}
				model = append(model, vs...)
			}
			pop := func(n int) {
				var got []*int
				if n == 1 {
					if h, p := q.Head(), q.Pop(); p != nil {
						if h != p {
							t.Fatalf("Head %p differs from the Pop that followed %p", h, p)
						}
						got = append(got, p)
					}
				} else {
					got = run[:q.PopRun(run[:n])]
				}
				if want := min(n, len(model)); len(got) != want {
					t.Fatalf("popped %d entries, want %d", len(got), want)
				}
				for i, p := range got {
					if *p != model[i] {
						t.Fatalf("pop got %d, want %d", *p, model[i])
					}
				}
				model = model[len(got):]
			}
			for i := 0; i < tc.ops; i++ {
				tc.step(i, &q, push, pop)
				if q.Len() != len(model) {
					t.Fatalf("op %d: Len %d, model %d", i, q.Len(), len(model))
				}
			}
			if tc.maxCap > 0 && cap(q.items) > tc.maxCap {
				t.Fatalf("backing array grew to cap %d, want at most %d", cap(q.items), tc.maxCap)
			}
			// Every slot outside the live window is cleared: no pointer
			// outlives its pop.
			for i, p := range q.items[:cap(q.items)] {
				if live := i >= q.head && i < len(q.items); !live && p != nil {
					t.Fatalf("vacated slot %d still holds %d", i, *p)
				}
			}
			for len(model) > 0 {
				pop(len(run))
			}
			if q.Pop() != nil || q.Head() != nil || q.PopRun(run) != 0 {
				t.Fatal("drained queue still yields entries")
			}
		})
	}
}
