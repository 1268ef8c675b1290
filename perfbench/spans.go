package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pioman/internal/core"
	"pioman/internal/mpi"
)

// Span names: one per layer boundary the benchmark crosses. An op.* span
// covers one whole operation; the calls it makes are its children.
const (
	spRTT      uint8 = iota // op: one round trip or overlap iteration
	spWindow                // op: one stream window and its ack
	spBulk                  // op: one rendezvous send, post to completion
	spEcho                  // op: the responder's side of one exchange
	spIsend                 // mpi.Proc.Isend
	spIrecv                 // mpi.Proc.Irecv
	spWaitSend              // mpi.Proc.WaitSend
	spWaitRecv              // mpi.Proc.WaitRecv
	spCompute               // sched.Thread.Compute through mpi.Proc
	spFabSend               // fabric.Endpoint.Send
	spFabRecv               // fabric.Endpoint.BlockingRecv
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"op.rtt", "op.window", "op.bulk", "op.echo",
	"mpi.Isend", "mpi.Irecv", "mpi.WaitSend", "mpi.WaitRecv", "mpi.Compute",
	"fabric.Send", "fabric.BlockingRecv",
}

// span is one recorded call: start and end in nanoseconds since the
// tracer's epoch, the operation it belongs to and its parent span.
type span struct {
	start, end int64
	op         uint64
	parent     int32 // index in the same tracer, -1 for an operation
	name       uint8
}

// ringSpans is each tracer's span capacity. Every call of the traced
// window is recorded, so the tracing cost stays uniform, but only the
// latest ringSpans are kept: memory and the span file stay bounded.
const ringSpans = 1 << 14

// tracer keeps one thread's spans in memory. Each rank's application
// thread owns one, so recording takes no lock.
type tracer struct {
	epoch time.Time
	tid   int
	spans []span
	n     uint64 // spans recorded so far
}

func newTracer(epoch time.Time, tid int) *tracer {
	return &tracer{epoch: epoch, tid: tid, spans: make([]span, ringSpans)}
}

// begin opens a span and returns its slot.
func (t *tracer) begin(name uint8, op uint64, parent int32) int32 {
	i := int32(t.n % ringSpans)
	t.n++
	t.spans[i] = span{start: int64(time.Since(t.epoch)), op: op, parent: parent, name: name}
	return i
}

// end closes the span in slot i.
func (t *tracer) end(i int32) {
	t.spans[i].end = int64(time.Since(t.epoch))
}

// kept returns the closed spans still held, with their parents' names
// ("" for an operation, or when the parent was overwritten).
func (t *tracer) kept(fn func(s span, parent string)) {
	for _, s := range t.spans {
		if s.end == 0 {
			continue
		}
		parent := ""
		if s.parent >= 0 {
			if ps := t.spans[s.parent]; ps.op == s.op {
				parent = spanNames[ps.name]
			}
		}
		fn(s, parent)
	}
}

// durations returns the sorted durations, in µs, of the kept spans
// named name.
func durations(ts []*tracer, name uint8) []float64 {
	var out []float64
	for _, t := range ts {
		t.kept(func(s span, _ string) {
			if s.name == name {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		})
	}
	sort.Float64s(out)
	return out
}

// chromeEvent is one complete ("X") or metadata ("M") trace event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every tracer's spans to path as Chrome trace-event
// JSON, which Perfetto and chrome://tracing load: one thread track per
// tracer, spans as complete events carrying their operation id and
// parent.
func writeChrome(path string, ts []*tracer, labels []string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	n := 0
	write := func(e chromeEvent) error {
		if n > 0 {
			bw.WriteByte(',')
		}
		n++
		return enc.Encode(e)
	}
	if err := write(chromeEvent{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "perfbench"}}); err != nil {
		return 0, err
	}
	for i, t := range ts {
		if err := write(chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: t.tid, Args: map[string]any{"name": labels[i]}}); err != nil {
			return 0, err
		}
		var werr error
		t.kept(func(s span, parent string) {
			args := map[string]any{"op": s.op}
			if parent != "" {
				args["parent"] = parent
			}
			if err := write(chromeEvent{
				Name: spanNames[s.name], Ph: "X", PID: 1, TID: t.tid,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
			}); err != nil && werr == nil {
				werr = err
			}
		})
		if werr != nil {
			return 0, werr
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return n, f.Close()
}

// checkChrome re-reads a span file and checks the trace-event shape
// Perfetto needs: a traceEvents array of named events with a known phase
// and non-negative times.
func checkChrome(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var t struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return fmt.Errorf("span file is not trace-event JSON: %w", err)
	}
	complete := 0
	for i, e := range t.TraceEvents {
		switch {
		case e.Name == "":
			return fmt.Errorf("span file event %d has no name", i)
		case e.Ph == "X" && e.Ts >= 0 && e.Dur >= 0:
			complete++
		case e.Ph == "M":
		default:
			return fmt.Errorf("span file event %d (%s) has phase %q or a negative time", i, e.Name, e.Ph)
		}
	}
	if complete == 0 {
		return fmt.Errorf("span file holds no spans")
	}
	return nil
}

// The wrappers below are the only way the workloads call into the mpi
// layer, so a traced run records a span around every call and an
// untraced one pays a nil check.

func (r *run) tracerOf(p *mpi.Proc) *tracer { return r.tr[p.Rank()] }

// beginOp opens operation op's span. Both ranks use the message
// sequence number as op, so the two sides of one exchange share an id.
func (r *run) beginOp(p *mpi.Proc, name uint8, op uint64) int32 {
	t := r.tracerOf(p)
	if t == nil {
		return -1
	}
	return t.begin(name, op, -1)
}

func (r *run) endOp(p *mpi.Proc, i int32) {
	if t := r.tracerOf(p); t != nil {
		t.end(i)
	}
}

func (r *run) isend(p *mpi.Proc, parent int32, op uint64, dst, tag int, b []byte) *core.SendReq {
	t := r.tracerOf(p)
	if t == nil {
		return p.Isend(dst, tag, b)
	}
	s := t.begin(spIsend, op, parent)
	req := p.Isend(dst, tag, b)
	t.end(s)
	return req
}

func (r *run) irecv(p *mpi.Proc, parent int32, op uint64, src, tag int, b []byte) *core.RecvReq {
	t := r.tracerOf(p)
	if t == nil {
		return p.Irecv(src, tag, b)
	}
	s := t.begin(spIrecv, op, parent)
	req := p.Irecv(src, tag, b)
	t.end(s)
	return req
}

func (r *run) waitSend(p *mpi.Proc, parent int32, op uint64, req *core.SendReq) {
	t := r.tracerOf(p)
	if t == nil {
		p.WaitSend(req)
		return
	}
	s := t.begin(spWaitSend, op, parent)
	p.WaitSend(req)
	t.end(s)
}

func (r *run) waitRecv(p *mpi.Proc, parent int32, op uint64, req *core.RecvReq) {
	t := r.tracerOf(p)
	if t == nil {
		p.WaitRecv(req)
		return
	}
	s := t.begin(spWaitRecv, op, parent)
	p.WaitRecv(req)
	t.end(s)
}

func (r *run) compute(p *mpi.Proc, parent int32, op uint64, d time.Duration) {
	t := r.tracerOf(p)
	if t == nil {
		p.Compute(d)
		return
	}
	s := t.begin(spCompute, op, parent)
	p.Compute(d)
	t.end(s)
}
