package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"threegol/internal/obs/eventlog"
	"threegol/internal/proxy"
)

// tracer records the benchmark's spans around its calls into each
// layer's exported API, in the repository's own flight recorder. A nil
// *tracer records nothing, and every wrap helper returns the wrapped
// value unchanged, so an untraced run carries no wrapper at all.
type tracer struct {
	log  *eventlog.Log
	from float64 // log time of the last mark

	mu      sync.Mutex
	samples map[string]sample // timings too fine-grained for spans

	links sync.Map // link class → *linkStats
}

func newTracer(seed int64) *tracer {
	return &tracer{
		log:     eventlog.New(0, seed, eventlog.SinceStart(nil)),
		samples: make(map[string]sample),
	}
}

// mark starts the measured window: spans begun before it, samples and
// link counters are left out of everything reported after it.
func (t *tracer) mark() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.from = t.log.Now()
	t.samples = make(map[string]sample)
	t.links.Range(func(_, v any) bool {
		st := v.(*linkStats)
		for _, c := range []*atomic.Int64{&st.reads, &st.readNs, &st.readBytes, &st.writes, &st.writeNs, &st.writeBytes} {
			c.Store(0)
		}
		return true
	})
}

// events returns the stream recorded since the last mark: spans begun
// after it with their ends, and points after it (nil on a nil tracer).
func (t *tracer) events() []eventlog.Event {
	if t == nil {
		return nil
	}
	from := t.windowStart()
	all := t.log.Events()
	kept := make(map[string]bool)
	out := all[:0:0]
	for _, ev := range all {
		switch {
		case ev.Kind == eventlog.KindBegin && ev.T >= from:
			kept[ev.Span] = true
		case ev.Kind == eventlog.KindEnd && kept[ev.Span]:
		case ev.Kind == eventlog.KindPoint && ev.T >= from:
		default:
			continue
		}
		out = append(out, ev)
	}
	return out
}

func (t *tracer) windowStart() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.from
}

// begin opens a span under parent.
func (t *tracer) begin(parent eventlog.TraceContext, name string, attrs ...string) eventlog.Span {
	if t == nil {
		return eventlog.Span{}
	}
	return t.log.Begin(parent, name, attrs...)
}

// add appends one measurement to a named sample.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.samples[name] = append(t.samples[name], v)
}

// sample returns a copy of a named sample.
func (t *tracer) sample(name string) sample {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(sample(nil), t.samples[name]...)
}

// link returns the I/O counters of one link class.
func (t *tracer) link(class string) *linkStats {
	v, _ := t.links.LoadOrStore(class, &linkStats{})
	return v.(*linkStats)
}

// parentOf finds the trace position a request carries: its context
// first (set by the scheduler around each attempt), then its header.
func parentOf(r *http.Request) eventlog.TraceContext {
	if tc, ok := eventlog.FromContext(r.Context()); ok && tc.Valid() {
		return tc
	}
	tc, _ := eventlog.ExtractHTTP(r.Header)
	return tc
}

// transport wraps a client transport: each round trip is a span from
// the request until its body is read to the end or closed, whose
// context rides the propagation header so the serving side's spans
// join it. name picks the span name per request; the time to response
// headers is kept in the sample "ttfb.<class>".
func (t *tracer) transport(inner http.RoundTripper, class string, name func(*http.Request) string) http.RoundTripper {
	if t == nil {
		return inner
	}
	return &tracedTransport{t: t, inner: inner, class: class, name: name}
}

type tracedTransport struct {
	t     *tracer
	inner http.RoundTripper
	class string
	name  func(*http.Request) string
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := tt.t.begin(parentOf(req), tt.name(req), "route", tt.class)
	out := req.Clone(req.Context())
	eventlog.InjectHTTP(out.Header, sp.Context())
	start := wall.Now()
	resp, err := tt.inner.RoundTrip(out)
	if err != nil {
		sp.End("error", err.Error())
		return nil, err
	}
	tt.t.add("ttfb."+tt.class, wall.Since(start).Seconds())
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body reaches EOF or is closed,
// whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp   eventlog.Span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(func() { b.sp.End() })
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.sp.End() })
	return b.ReadCloser.Close()
}

// handler wraps a server: each request is a span parented to the
// caller's propagation header, re-injected so spans the inner handler
// starts (and requests it forwards) join this one.
func (t *tracer) handler(inner http.Handler, name func(*http.Request) string) http.Handler {
	if t == nil {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := eventlog.ExtractHTTP(r.Header)
		sp := t.begin(parent, name(r))
		eventlog.InjectHTTP(r.Header, sp.Context())
		inner.ServeHTTP(w, r)
		sp.End()
	})
}

// admit wraps a proxy admission gate in a span.
func (t *tracer) admit(inner func(context.Context) bool, name string) func(context.Context) bool {
	if t == nil {
		return inner
	}
	return func(ctx context.Context) bool {
		parent, _ := eventlog.FromContext(ctx)
		sp := t.begin(parent, name)
		ok := inner(ctx)
		sp.End()
		return ok
	}
}

// dialer wraps a dialer: each dial is a span, and each connection it
// returns times its reads and writes into the link class's counters
// (reads and writes are too many and too short for one span each).
func (t *tracer) dialer(inner proxy.Dialer, name, class string) proxy.Dialer {
	if t == nil {
		return inner
	}
	return &tracedDialer{t: t, inner: inner, name: name, st: t.link(class)}
}

type tracedDialer struct {
	t     *tracer
	inner proxy.Dialer
	name  string
	st    *linkStats
}

func (d *tracedDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	parent, _ := eventlog.FromContext(ctx)
	sp := d.t.begin(parent, d.name)
	c, err := d.inner.DialContext(ctx, network, addr)
	if err != nil {
		sp.End("error", err.Error())
		return nil, err
	}
	sp.End()
	return &timedConn{Conn: c, st: d.st}, nil
}

// linkStats counts one link class's shaped reads and writes.
type linkStats struct {
	reads, readNs, readBytes    atomic.Int64
	writes, writeNs, writeBytes atomic.Int64
}

// timedConn times a connection's reads and writes. An HTTP/1.1
// connection sits in Read while idle in the pool, so a read is timed
// only from the later of its start and the connection's last write
// (the request it answers), and reads that return no data are not
// counted.
type timedConn struct {
	net.Conn
	st        *linkStats
	lastWrite atomic.Int64 // unix nanoseconds
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := wall.Now().UnixNano()
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.st.reads.Add(1)
		c.st.readNs.Add(wall.Now().UnixNano() - max(start, c.lastWrite.Load()))
		c.st.readBytes.Add(int64(n))
	}
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	start := wall.Now()
	c.lastWrite.Store(start.UnixNano())
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.st.writeNs.Add(int64(wall.Since(start)))
	c.st.writeBytes.Add(int64(n))
	return n, err
}

// spanStats summarises the spans of one trace, per span name.
type spanStats struct {
	dur  map[string]sample // durations, seconds
	self map[string]sample // self times, seconds
	// blocking is, per root span name, the time each span name spent on
	// the roots' critical paths, summed over roots.
	blocking map[string]map[string]float64
	roots    map[string]sample // root durations by root name
}

// analyze assembles the stream and computes durations, self times and
// critical-path blocking times.
func analyze(events []eventlog.Event) spanStats {
	st := spanStats{
		dur:      make(map[string]sample),
		self:     make(map[string]sample),
		blocking: make(map[string]map[string]float64),
		roots:    make(map[string]sample),
	}
	a := eventlog.Assemble(events)
	for _, tr := range a.Traces {
		for _, n := range tr.Spans {
			if !n.Ended {
				continue
			}
			st.dur[n.Name] = append(st.dur[n.Name], n.Duration())
			st.self[n.Name] = append(st.self[n.Name], selfTime(n))
		}
		for _, r := range tr.Roots {
			if !r.Ended {
				continue
			}
			acc := st.blocking[r.Name]
			if acc == nil {
				acc = make(map[string]float64)
				st.blocking[r.Name] = acc
			}
			criticalSelf(r, r.End, acc)
			st.roots[r.Name] = append(st.roots[r.Name], r.Duration())
		}
	}
	return st
}

// selfTime is a span's duration minus the part of its interval that
// its ended children cover (their union, clipped to the span).
func selfTime(n *eventlog.SpanNode) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range n.Children {
		if !c.Ended {
			continue
		}
		lo, hi := max(c.Start, n.Start), min(c.End, n.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := 0.0, n.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			covered += v.hi - reach
			reach = v.hi
		}
	}
	return n.Duration() - covered
}

// criticalSelf walks n's critical path backwards from end: at each
// step the child that ends last (no later than the cursor) is the one
// blocking n; the gaps between blocking children are n's own time.
// Each instant of [n.Start, end] is credited to exactly one span name
// in acc, so the credits sum to the root's duration.
func criticalSelf(n *eventlog.SpanNode, end float64, acc map[string]float64) {
	kids := make([]*eventlog.SpanNode, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Ended && c.Start >= n.Start && c.End <= end {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].End != kids[j].End {
			return kids[i].End > kids[j].End
		}
		return kids[i].ID < kids[j].ID
	})
	t := end
	for _, c := range kids {
		if c.End > t {
			continue // overlaps the blocking child already credited
		}
		acc[n.Name] += t - c.End
		criticalSelf(c, c.End, acc)
		t = c.Start
	}
	if t > n.Start {
		acc[n.Name] += t - n.Start
	}
}

// writeTrace validates the stream with eventlog.Check and writes it as
// JSONL for 3goltrace.
func writeTrace(path string, events []eventlog.Event) error {
	if _, err := eventlog.Check(events); err != nil {
		return fmt.Errorf("trace stream invalid: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eventlog.WriteJSONL(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
