package s2rdf

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"

	"s2rdf/internal/cache"
	"s2rdf/internal/core"
	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/sched"
)

// respond delivers the executing query's answer through the one encoder.
// It buffers the stream's column blocks up to StreamThreshold rows: a
// result that completes within the buffer (and any ASK answer) is written
// as a single JSON document with final metrics in the headers. Past the
// threshold it switches to incremental delivery — head and buffered rows
// flushed immediately, then the rest through streamRest, one flush per
// engine batch — so the client's first bytes do not wait for the last row.
// Metric headers are then a snapshot as of the first flush (headers cannot
// trail the body). Either way every chunk tees into the cache fill, so a
// cached replay is byte-identical to direct execution.
//
// A query that dies before the first byte keeps the error contract (fail).
// A query that dies mid-stream cannot change the status line anymore: the
// response ends with a trailing "error" extension member after the bindings
// array and the connection is closed without a clean terminator, so both
// JSON-level and transport-level clients can tell the result is a
// truncation. A write that fails (the client is gone) aborts the response
// at once: nothing more is encoded and the query is cancelled.
func (req *request) respond() {
	threshold := req.s.opts.StreamThreshold
	if threshold <= 0 {
		threshold = DefaultStreamThreshold
	}
	var blocks []*engine.Block
	rows, done := 0, false
	for !done && rows <= threshold {
		b, err := req.stream.NextBlock()
		if req.fail(err) {
			return
		}
		if b == nil {
			done = true
		} else {
			blocks = append(blocks, b)
			rows += b.Len()
		}
	}

	h := req.w.Header()
	if !done {
		req.sv.streaming.Add(1)
		defer req.sv.streaming.Add(-1)
		h.Set("X-S2RDF-Streaming", "true")
	}
	if req.sv.rcache != nil {
		h.Set("X-S2RDF-Cache", "miss")
	}
	res := req.stream.Result()
	req.setHeaders(res)

	enc := req.newEncoder()
	if req.q.Ask {
		abortOn(enc.ask(res.Ask))
	} else {
		enc.head(res.Vars)
		for _, b := range blocks {
			enc.buf = enc.bindings(enc.buf, b, enc.n > 0)
			enc.n += b.Len()
		}
		if !done {
			req.streamRest(enc)
		}
		abortOn(enc.end())
	}
	if f := enc.fill; f != nil && !f.over {
		req.sv.rcache.Put(req.ckey, &cache.Entry{Body: f.body})
	}
}

// abortOn ends the response without a clean terminator when a write
// failed: the client is gone, so nothing more is worth encoding.
func abortOn(err error) {
	if err != nil {
		panic(http.ErrAbortHandler)
	}
}

// encodeAhead is how many encoded batches may wait ahead of the socket
// write: two, so that both cores encode while the request goroutine writes.
const encodeAhead = 2

// streamBuffers bounds a streamed response's encode buffers: one being
// written, encodeAhead queued, and one for the block the producer pulled
// next while the queue is full.
const streamBuffers = encodeAhead + 2

// streamRest delivers the rest of a streamed result after the head and the
// buffered rows. One producer goroutine pulls the stream's blocks — so the
// scheduler's time slices and the cancellation polls still happen in
// BatchIter.Next — and encodes each on a goroutine of its own into one of
// the request's buffers; the request goroutine takes the encoded batches
// in stream order, writes, flushes and tees each into the cache fill, and
// hands its buffer back. A failed stream (cancellation, deadline, a
// recovered panic) arrives in order after the batches before it, which are
// written first; then the trailing error member ends the body.
func (req *request) streamRest(enc *streamEncoder) {
	// Size the request's buffers from its first encoded batch.
	perRow := len(enc.buf)/enc.n + 1
	abortOn(enc.flush())
	hook := req.s.opts.flushed
	if hook != nil {
		hook(enc.n)
	}
	p := &encodePipeline{
		stream: req.stream,
		enc:    enc,
		perRow: perRow,
		out:    make(chan *encodedBatch, encodeAhead),
		free:   make(chan []byte, streamBuffers),
		quit:   make(chan struct{}),
	}
	p.wg.Add(1)
	go p.produce()
	defer p.stop(req.cancel)
	for c := range p.out {
		<-c.ready
		if c.err != nil {
			// The trailer is deliberately not teed — the cache must never
			// see one request's error text, and the fill is never inserted.
			// Closing the connection without the terminating chunk marks
			// the body as truncated at the transport level; the JSON
			// document is still complete for lenient clients.
			writeAbortTrailer(req.w, c.err)
			panic(http.ErrAbortHandler)
		}
		abortOn(enc.write(c.buf))
		enc.n += c.rows
		p.free <- c.buf[:0]
		if hook != nil {
			hook(enc.n)
		}
	}
}

// encodedBatch is one engine batch on its way to the socket.
type encodedBatch struct {
	buf   []byte
	rows  int
	err   error         // set instead of buf when the stream or the encode failed
	ready chan struct{} // closed once buf or err is final
}

// encodePipeline is a streamed response's look-ahead: the producer and
// encoder goroutines of streamRest, and the channels that bound them.
// Every goroutine it starts recovers panics into *core.QueryPanicError,
// which ends the stream like any other failure: a panic off the handler
// goroutine would otherwise kill the process.
type encodePipeline struct {
	stream *core.Stream
	enc    *streamEncoder     // read-only while the pipeline runs
	perRow int                // bytes per row of the first encoded batch
	made   int                // buffers allocated so far (producer-owned)
	out    chan *encodedBatch // in stream order, encodeAhead deep; closed when the producer ends
	free   chan []byte        // buffers written and handed back; room for all streamBuffers
	quit   chan struct{}      // closed when the writer stops
	wg     sync.WaitGroup
}

// produce pulls the stream to its end, starting one encoder per block and
// queueing its batch, and ends the queue with the stream's error if any.
func (p *encodePipeline) produce() {
	defer p.wg.Done()
	defer close(p.out)
	var err error
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
		if err != nil {
			done := make(chan struct{})
			close(done)
			p.send(&encodedBatch{err: err, ready: done})
		}
	}()
	for {
		var b *engine.Block
		if b, err = p.stream.NextBlock(); b == nil || err != nil {
			return
		}
		buf, ok := p.take(b.Len())
		if !ok {
			return
		}
		c := &encodedBatch{rows: b.Len(), ready: make(chan struct{})}
		p.wg.Add(1)
		go p.encode(c, buf, b)
		if !p.send(c) {
			return
		}
	}
}

// encode renders one block into buf. Every batch of the pipeline follows
// the head's buffered rows (a streamed result is past a threshold of at
// least one row), so each opens with a separator.
func (p *encodePipeline) encode(c *encodedBatch, buf []byte, b *engine.Block) {
	defer p.wg.Done()
	defer close(c.ready)
	defer func() {
		if r := recover(); r != nil {
			c.err = panicError(r)
		}
	}()
	c.buf = p.enc.bindings(buf, b, true)
}

// take returns a buffer for a block of rows: one handed back by the
// writer, a new one sized from the first batch while fewer than
// streamBuffers exist, else the next one handed back. It reports false
// when the writer stopped.
func (p *encodePipeline) take(rows int) ([]byte, bool) {
	select {
	case buf := <-p.free:
		return buf, true
	default:
	}
	if p.made < streamBuffers {
		p.made++
		return make([]byte, 0, rows*p.perRow*9/8), true
	}
	select {
	case buf := <-p.free:
		return buf, true
	case <-p.quit:
		return nil, false
	}
}

// send queues c for the writer, reporting false when the writer stopped.
func (p *encodePipeline) send(c *encodedBatch) bool {
	select {
	case p.out <- c:
		return true
	case <-p.quit:
		return false
	}
}

// stop ends the pipeline when the writer is done with it — at the end of
// the stream, or early, after a failed write or a failed batch: it cancels
// the query (a producer parked in a yield wakes and unwinds) and waits for
// every goroutine, so the stream and the scheduler ticket are the request
// goroutine's again.
func (p *encodePipeline) stop(cancel context.CancelFunc) {
	close(p.quit)
	cancel()
	p.wg.Wait()
}

// panicError wraps a panic recovered on a pipeline goroutine.
func panicError(r any) error {
	return &core.QueryPanicError{Value: r, Stack: debug.Stack()}
}

// fillState accumulates the serialized body for a cache fill, abandoning
// the copy (and counting the rejection) as soon as it outgrows the
// per-entry cap — the executing response keeps streaming regardless.
type fillState struct {
	body []byte
	max  int64
	over bool
	rc   *cache.ResultCache
}

func (fs *fillState) add(p []byte) {
	if fs.over {
		return
	}
	if int64(len(fs.body))+int64(len(p)) > fs.max {
		fs.over = true
		fs.body = nil
		fs.rc.NoteRejected()
		return
	}
	fs.body = append(fs.body, p...)
}

// streamEncoder writes the SPARQL 1.1 JSON results document — the ASK
// document, or a SELECT head, the bindings and the tail. Bindings are
// encoded straight from the engine's column blocks: per column, the ID
// column and a pre-rendered `"name":` / `,"name":` prefix, each row opened
// by one `,\n{` append (the document's first row drops the comma). Terms
// render through the dictionary's memoized SPARQL-JSON bytes
// (dict.TermJSON), so a term is escaped once per store lifetime, not once
// per row. bindings reads only state fixed by head, so the pipeline's
// encoders run it concurrently; everything else — the pending buffer, the
// row count, the writes — belongs to the request goroutine. Every chunk
// written tees into the request's cache fill (future hits replay it from
// memory); because every executed response flows through here, a cached
// body is byte-identical to an executed one.
type streamEncoder struct {
	w    *trackingWriter
	d    *dict.Dict
	rest [][]byte // per column: `,"name":`; its [1:] opens a row's first binding
	buf  []byte   // pending bytes since the last flush
	n    int      // bindings encoded into buf or written
	fill *fillState
}

// newEncoder opens the response body once the handler has stamped every
// header. The result is cached only when the cache is on and the cost gate
// classified the query expensive (point lookups re-execute faster than they
// churn the LRU — the admission policy of the result cache is the same gate
// that decides which queries the scheduler time-slices).
func (req *request) newEncoder() *streamEncoder {
	e := &streamEncoder{w: req.w, d: req.sv.st.Dataset().Dict}
	if rc := req.sv.rcache; rc != nil && req.class == sched.Expensive {
		e.fill = &fillState{max: rc.MaxEntry(), rc: rc}
	}
	return e
}

// ask writes the complete document of an ASK answer.
func (e *streamEncoder) ask(answer bool) error {
	e.buf = fmt.Appendf(e.buf, "{\"head\":{},\"boolean\":%t}\n", answer)
	return e.flush()
}

// head opens a SELECT document.
func (e *streamEncoder) head(vars []string) {
	names := make([][]byte, len(vars))
	e.rest = make([][]byte, len(vars))
	for i, v := range vars {
		names[i], _ = json.Marshal(v)
		e.rest[i] = append(append([]byte{','}, names[i]...), ':')
	}
	e.buf = append(e.buf, `{"head":{"vars":[`...)
	e.buf = append(e.buf, bytes.Join(names, []byte{','})...)
	e.buf = append(e.buf, `]},"results":{"bindings":[`...)
}

// rowOpen separates and opens one binding object.
const rowOpen = ",\n{"

// bindings appends the binding objects of b's rows to dst and returns it;
// lead reports whether a binding precedes b in the document. Unbound
// variables (engine.Null under OPTIONAL/UNION) are left out of their row.
func (e *streamEncoder) bindings(dst []byte, b *engine.Block, lead bool) []byte {
	cols := make([][]dict.ID, b.Arity())
	for j := range cols {
		cols[j] = b.Col(j)
	}
	open := rowOpen
	if !lead {
		open = rowOpen[1:]
	}
	for i := range b.Len() {
		dst = append(dst, open...)
		open = rowOpen
		skip := 1 // the row's first binding takes no comma
		for j, col := range cols {
			id := col[i]
			if id == engine.Null {
				continue
			}
			dst = append(dst, e.rest[j][skip:]...)
			skip = 0
			dst = append(dst, e.d.TermJSON(id)...)
		}
		dst = append(dst, '}')
	}
	return dst
}

// write sends p to the wire, tees it into the cache fill and flushes the
// connection, returning the first write error.
func (e *streamEncoder) write(p []byte) error {
	if _, err := e.w.Write(p); err != nil {
		return err
	}
	if e.fill != nil {
		e.fill.add(p)
	}
	return e.w.FlushError()
}

// flush writes the pending bytes.
func (e *streamEncoder) flush() error {
	err := e.write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// end closes a SELECT document after a complete stream.
func (e *streamEncoder) end() error {
	e.buf = append(e.buf, "\n]}}\n"...)
	return e.flush()
}

// writeAbortTrailer appends the trailing "error" member that marks a
// response body as truncated.
func writeAbortTrailer(w *trackingWriter, err error) {
	msg := err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		msg = "query deadline exceeded mid-stream"
	case errors.Is(err, context.Canceled):
		msg = "request cancelled mid-stream"
	}
	quoted, _ := json.Marshal(msg)
	fmt.Fprintf(w, "\n]},\"error\":%s}\n", quoted)
	w.Flush()
}
