package bench

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Tally counts attempted and failed ops across every phase and keeps
// the first few failures for the log.
type Tally struct {
	mu        sync.Mutex
	Attempted int
	Failed    int
	errs      []string
}

// Record counts one op; err non-nil marks it failed.
func (t *Tally) Record(op Op, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Attempted++
	if err != nil {
		t.Failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, fmt.Sprintf("%v (op %.120q)", err, op.SQL))
		}
	}
}

// Log writes the kept failures.
func (t *Tally) Log(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.errs {
		fmt.Fprintln(w, "failed op:", e)
	}
}

// Stream hands out a workload's ops to concurrent senders; Mutate, when
// set, edits each op's prediction before it is sent (the tests use it
// to force a bad reply).
type Stream struct {
	mu     sync.Mutex
	w      *Workload
	Mutate func(*Op)
}

// NewStream wraps w's seeded request stream.
func NewStream(w *Workload) *Stream { return &Stream{w: w} }

// Next returns the next op.
func (s *Stream) Next() Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.w.Next()
	if s.Mutate != nil {
		s.Mutate(&op)
	}
	return op
}

// Sample is one op's latency, +Inf when it failed, and its kind.
type Sample struct {
	Kind Kind
	MS   float64
}

// Latencies splits samples into all, reads and writes, in ms.
func Latencies(ss []Sample) (all, reads, writes []float64) {
	for _, s := range ss {
		all = append(all, s.MS)
		if s.Kind == Read {
			reads = append(reads, s.MS)
		} else {
			writes = append(writes, s.MS)
		}
	}
	return all, reads, writes
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// ClosedLoop runs conns clients against addr for dur, each sending its
// next op only after the previous reply, and returns the samples and
// the measured elapsed time.
func ClosedLoop(addr string, conns int, dur time.Duration, s *Stream, t *Tally) ([]Sample, time.Duration, error) {
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			return nil, 0, err
		}
		defer c.Close()
		cs[i] = c
	}
	var mu sync.Mutex
	var out []Sample
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var mine []Sample
			for time.Now().Before(end) {
				op := s.Next()
				t0 := time.Now()
				r, err := c.Call(op.Line())
				ms := msSince(t0)
				if err == nil {
					err = Check(op, r)
				}
				t.Record(op, err)
				if err != nil {
					ms = math.Inf(1)
				}
				mine = append(mine, Sample{op.Kind, ms})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out, time.Since(start), nil
}

// OpenLoopResult is one open-loop phase: latency samples timed from each
// op's scheduled send time, and how late the generator sent.
type OpenLoopResult struct {
	Samples []Sample
	// LateMS is each op's send time minus its scheduled time.
	LateMS []float64
}

// OpenLoop sends ops at a fixed rate for dur, alternating over conns
// connections and pipelining regardless of replies, then waits for
// every reply. Latency runs from the scheduled send time, so a stall
// also charges the wait it imposes on later ops.
func OpenLoop(addr string, conns int, rate float64, dur time.Duration, s *Stream, t *Tally) (*OpenLoopResult, error) {
	n := int(rate * dur.Seconds())
	type pending struct {
		op  Op
		due time.Time
	}
	cs := make([]*conn, conns)
	queues := make([]chan pending, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		cs[i] = c
		queues[i] = make(chan pending, n/conns+1) // one slot per op this connection sends
	}
	res := &OpenLoopResult{LateMS: make([]float64, 0, n)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(c *conn, q chan pending) {
			defer wg.Done()
			for p := range q {
				r, err := c.Recv()
				ms := msSince(p.due)
				if err == nil {
					err = Check(p.op, r)
				}
				t.Record(p.op, err)
				if err != nil {
					ms = math.Inf(1)
				}
				mu.Lock()
				res.Samples = append(res.Samples, Sample{p.op.Kind, ms})
				mu.Unlock()
			}
		}(c, queues[i])
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var sendErr error
	for k := 0; k < n && sendErr == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		time.Sleep(time.Until(due))
		op := s.Next()
		res.LateMS = append(res.LateMS, msSince(due))
		queues[k%conns] <- pending{op, due}
		sendErr = cs[k%conns].Send(op.Line())
	}
	for _, c := range cs {
		// A reply that has not come a minute after the phase is lost.
		_ = c.c.SetReadDeadline(time.Now().Add(time.Minute))
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return res, sendErr
}

// Calls runs ops one at a time on one connection, checking each reply.
func Calls(addr string, ops []Op, t *Tally) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, op := range ops {
		r, err := c.Call(op.Line())
		if err == nil {
			err = Check(op, r)
		}
		t.Record(op, err)
	}
	return nil
}
