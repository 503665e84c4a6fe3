package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"s2rdf"
	"s2rdf/internal/dict"
	"s2rdf/internal/engine"
	"s2rdf/internal/rdf"
	"s2rdf/internal/ref"
	"s2rdf/internal/sparql"
	"s2rdf/internal/watdiv"
)

// The answer check runs before any timing and aborts the benchmark on the
// first mismatch. It has two halves, sized so that every run can afford
// both:
//
//   - on the served store (scale 10), one instance of every template the
//     workload uses is answered over HTTP, in process in ModeExtVP and in
//     process in ModeVP, and the three solution multisets must be equal.
//     Results reach 4×10^5 rows, so they are compared as multisets of
//     64-bit hashes of each solution's wire rendering (one line of the
//     SPARQL-JSON body), never decoded;
//   - on a small store (scale 0.02), at least 40 sampled queries are
//     answered over HTTP (body parsed as JSON), in process in ModeVP, and by
//     the naive evaluator internal/ref; all three must be equal.
//
// An ORDER BY ?v0 LIMIT 10 result is defined only up to ties on ?v0, so for
// analytic_reduce "equal" means: the same multiset of ?v0 values, and every
// solution a member of the unlimited BGP's result.

// multiset is an order-insensitive digest of a bag of byte strings or ID
// rows: the count, the sum of the members' 64-bit hashes and the sum of
// their squares (which makes differences that cancel in the sum unlikely).
type multiset struct {
	n, sum, sumSq uint64
}

func (m *multiset) addHash(h uint64) {
	m.n++
	m.sum += h
	m.sumSq += h * h
}

var hashSeed = maphash.MakeSeed()

func lineHash(line []byte) uint64 { return maphash.Bytes(hashSeed, line) }

// rowHash hashes a solution as dictionary IDs (FNV-1a over the IDs, then a
// final mix); only >= 0 restricts it to that column. Two layouts of one
// store share a dictionary, so equal solutions have equal IDs.
func rowHash(row engine.Row, only int) uint64 {
	h := uint64(14695981039346656037)
	for j, id := range row {
		if only >= 0 && j != only {
			continue
		}
		h = (h ^ uint64(id)) * 1099511628211
	}
	h ^= h >> 32
	return h * 0x9e3779b97f4a7c15
}

// eachBatch runs text in process and hands every batch of raw ID rows to f.
func eachBatch(st *s2rdf.Store, mode s2rdf.Mode, text string, f func(vars []string, batch []engine.Row)) error {
	stream, err := st.Engine(mode).QueryStream(context.Background(), text)
	if err != nil {
		return err
	}
	for {
		batch, err := stream.NextRaw()
		if err != nil || batch == nil {
			return err
		}
		f(stream.Vars(), batch)
	}
}

// countRows returns how many solutions text has, in process.
func countRows(st *s2rdf.Store, text string) (int64, error) {
	n := int64(0)
	err := eachBatch(st, s2rdf.ModeExtVP, text, func(_ []string, batch []engine.Row) { n += int64(len(batch)) })
	return n, err
}

// lineRenderer lays a solution out the way the server's encoder writes a
// binding line: {"var":term,...} over the bound variables in column order;
// only >= 0 restricts it to that column.
type lineRenderer struct {
	d     *dict.Dict
	names [][]byte
	line  []byte
}

func (r *lineRenderer) render(vars []string, row engine.Row, only int) []byte {
	if r.names == nil {
		r.names = make([][]byte, len(vars))
		for i, v := range vars {
			r.names[i], _ = json.Marshal(v)
		}
	}
	r.line = append(r.line[:0], '{')
	for j, id := range row {
		if id == engine.Null || (only >= 0 && j != only) {
			continue
		}
		if len(r.line) > 1 {
			r.line = append(r.line, ',')
		}
		r.line = append(r.line, r.names[j]...)
		r.line = append(r.line, ':')
		r.line = append(r.line, r.d.TermJSON(id)...)
	}
	r.line = append(r.line, '}')
	return r.line
}

// eachBodyLine sends text over HTTP and hands every binding line of the
// reply (without its separating comma) to f, without holding the body.
func eachBodyLine(url, text string, f func(line []byte)) error {
	resp, err := http.Post(url, "application/sparql-query", strings.NewReader(text))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	if _, err := br.ReadSlice('\n'); err != nil { // the head line
		return fmt.Errorf("body has no head line: %w", err)
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("body does not end in a complete document: %w", err)
		}
		if string(line) == bodyTail[1:] { // "]}}" closes the document
			if rest, _ := io.ReadAll(br); len(rest) != 0 {
				return fmt.Errorf("body continues after the document")
			}
			return nil
		}
		f(bytes.TrimSuffix(line[:len(line)-1], []byte{','}))
	}
}

// fetchBody returns the complete body of one query over HTTP.
func fetchBody(url, text string) ([]byte, error) {
	resp, err := http.Post(url, "application/sparql-query", strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if !bytes.HasSuffix(body, []byte(bodyTail)) {
		return nil, fmt.Errorf("body does not end in a complete document")
	}
	return body, nil
}

func v0Column(vars []string) int {
	for i, v := range vars {
		if v == "v0" {
			return i
		}
	}
	return -1
}

// checkServed is the scale-10 half. It returns each checked query's
// solution count, which the timed window then holds every reply to.
func checkServed(e *env, w workload, sample []query) (map[string]int64, error) {
	counts := make(map[string]int64)
	for _, q := range sample {
		if _, done := counts[q.text]; done {
			continue
		}
		n, err := checkOneServed(e, w, q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.template, err)
		}
		counts[q.text] = n
	}
	return counts, nil
}

func checkOneServed(e *env, w workload, q query) (int64, error) {
	d := e.store.Dataset().Dict
	url := e.srv.url + "/sparql"

	// In process, ModeExtVP: as ID rows (to compare with ModeVP) and as
	// rendered lines (to compare with the wire).
	only := -1
	var extIDs, extLines multiset
	rend := &lineRenderer{d: d}
	err := eachBatch(e.store, s2rdf.ModeExtVP, q.text, func(vars []string, batch []engine.Row) {
		if w.reduce {
			only = v0Column(vars)
		}
		for _, row := range batch {
			extIDs.addHash(rowHash(row, only))
			extLines.addHash(lineHash(rend.render(vars, row, only)))
		}
	})
	if err != nil {
		return 0, fmt.Errorf("in process: %w", err)
	}
	var vpIDs multiset
	err = eachBatch(e.store, s2rdf.ModeVP, q.text, func(_ []string, batch []engine.Row) {
		for _, row := range batch {
			vpIDs.addHash(rowHash(row, only))
		}
	})
	if err != nil {
		return 0, fmt.Errorf("in ModeVP: %w", err)
	}
	if vpIDs != extIDs {
		return 0, fmt.Errorf("ModeVP (%d solutions) differs from ModeExtVP (%d)", vpIDs.n, extIDs.n)
	}

	var wire multiset
	if !w.reduce {
		err = eachBodyLine(url, q.text, func(line []byte) { wire.addHash(lineHash(line)) })
	} else {
		wire, err = checkReducedBody(e, q, rend)
	}
	if err != nil {
		return 0, fmt.Errorf("over HTTP: %w", err)
	}
	if wire != extLines {
		return 0, fmt.Errorf("HTTP body (%d solutions) differs from in-process ModeExtVP (%d)", wire.n, extLines.n)
	}
	return int64(extLines.n), nil
}

// checkReducedBody fetches a top-k body, checks that each of its solutions
// occurs in the unlimited BGP's result, and returns the multiset of the
// solutions' ?v0 members.
func checkReducedBody(e *env, q query, rend *lineRenderer) (multiset, error) {
	var wire multiset
	body, err := fetchBody(e.srv.url+"/sparql", q.text)
	if err != nil {
		return wire, err
	}
	sols, err := parseBody(body)
	if err != nil {
		return wire, err
	}
	// The body's binding lines, hashed whole, for the membership test.
	lines := bytes.Split(body[:len(body)-len(bodyTail)], []byte{'\n'})[1:]
	whole := make([]uint64, len(lines))
	for i, line := range lines {
		whole[i] = lineHash(bytes.TrimSuffix(line, []byte{','}))
	}
	found := make([]bool, len(whole))
	err = eachBatch(e.store, s2rdf.ModeExtVP, strings.TrimSuffix(q.text, reduceSuffix), func(vars []string, batch []engine.Row) {
		for _, row := range batch {
			h := lineHash(rend.render(vars, row, -1))
			for i, want := range whole {
				if h == want {
					found[i] = true
				}
			}
		}
	})
	if err != nil {
		return wire, fmt.Errorf("unlimited BGP: %w", err)
	}
	for _, ok := range found {
		if !ok {
			return wire, fmt.Errorf("a returned solution is not in the unlimited BGP's result")
		}
	}
	for _, b := range sols {
		line := append([]byte(`{"v0":`), dict.RenderTermJSON(b["v0"])...)
		wire.addHash(lineHash(append(line, '}')))
	}
	return wire, nil
}

// jsonDoc is the SPARQL 1.1 JSON results document.
type jsonDoc struct {
	Head    struct{ Vars []string }
	Results struct {
		Bindings []map[string]struct {
			Type, Value, Datatype string
			Lang                  string `json:"xml:lang"`
		}
	}
}

// xsdString is the datatype the wire format gives a plain literal (RDF 1.1
// makes it implicit); the N-Triples surface form the store and internal/ref
// use leaves it out.
const xsdString = "http://www.w3.org/2001/XMLSchema#string"

func parseBody(body []byte) ([]ref.Binding, error) {
	var doc jsonDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("body is not valid JSON: %w", err)
	}
	out := make([]ref.Binding, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		m := make(ref.Binding, len(b))
		for v, t := range b {
			switch {
			case t.Type == "uri":
				m[v] = rdf.NewIRI(t.Value)
			case t.Type == "bnode":
				m[v] = rdf.NewBlank(t.Value)
			case t.Datatype != "" && t.Datatype != xsdString:
				m[v] = rdf.NewTypedLiteral(t.Value, t.Datatype)
			case t.Lang != "":
				m[v] = rdf.NewLangLiteral(t.Value, t.Lang)
			default:
				m[v] = rdf.NewLiteral(t.Value)
			}
		}
		out[i] = m
	}
	return out, nil
}

func project(sols []ref.Binding, v string) []ref.Binding {
	out := make([]ref.Binding, len(sols))
	for i, b := range sols {
		out[i] = ref.Binding{v: b[v]}
	}
	return out
}

func sameMultiset(a, b []ref.Binding) bool {
	ca, cb := ref.CanonAll(a), ref.CanonAll(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// checkAgainstRef is the scale-0.02 half: n sampled queries of the
// workload (repeats of one text are checked once), each answered three ways
// and compared with internal/ref. The naive evaluator is the slow part, so
// the queries are spread over one goroutine per processor.
func checkAgainstRef(w workload, seed int64, n int) error {
	data := watdiv.Generate(watdiv.Config{Scale: verifyScale, Seed: populationSeed})
	st := s2rdf.Load(data.Triples, s2rdf.Options{})
	srv, err := startServer(st, w.cacheBytes)
	if err != nil {
		return err
	}
	defer srv.stop()
	seen := make(map[string]bool)
	var todo []query
	for _, q := range w.queries(data, seed).sample(n, seed) {
		if !seen[q.text] {
			seen[q.text] = true
			todo = append(todo, q)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for errs[i] == nil {
				k := int(next.Add(1) - 1)
				if k >= len(todo) {
					return
				}
				errs[i] = checkOneAgainstRef(w, data, st, srv.url+"/sparql", todo[k])
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func checkOneAgainstRef(w workload, data *watdiv.Data, st *s2rdf.Store, url string, q query) error {
	parsed, err := sparql.Parse(q.text)
	if err != nil {
		return fmt.Errorf("%s: %w", q.template, err)
	}
	body, err := fetchBody(url, q.text)
	if err != nil {
		return fmt.Errorf("%s over HTTP at scale %g: %w", q.template, verifyScale, err)
	}
	wire, err := parseBody(body)
	if err != nil {
		return fmt.Errorf("%s: %w", q.template, err)
	}
	res, err := st.QueryMode(s2rdf.ModeVP, q.text)
	if err != nil {
		return fmt.Errorf("%s in ModeVP at scale %g: %w", q.template, verifyScale, err)
	}
	vp := make([]ref.Binding, 0, len(res.Rows))
	for _, b := range res.Bindings() {
		vp = append(vp, ref.Binding(b))
	}
	var want []ref.Binding
	if !w.reduce {
		want = ref.EvalQuery(data.Triples, parsed)
	} else {
		// Evaluate the unlimited BGP once: its solutions are what every
		// returned solution must be a member of, and its ten smallest ?v0
		// (term order, as internal/ref sorts) are what ORDER BY ?v0
		// LIMIT 10 must return, whichever way ties fall.
		base := *parsed
		base.OrderBy, base.Limit = nil, -1
		full := ref.EvalQuery(data.Triples, &base)
		member := make(map[string]bool, len(full))
		for _, b := range full {
			member[ref.Canon(b)] = true
		}
		for _, b := range append(append([]ref.Binding{}, wire...), vp...) {
			if !member[ref.Canon(b)] {
				return fmt.Errorf("%s at scale %g: a returned solution is not in the reference result of the unlimited BGP", q.template, verifyScale)
			}
		}
		want = project(full, "v0")
		sort.Slice(want, func(i, j int) bool { return want[i]["v0"] < want[j]["v0"] })
		if len(want) > parsed.Limit {
			want = want[:parsed.Limit]
		}
		wire, vp = project(wire, "v0"), project(vp, "v0")
	}
	if !sameMultiset(wire, want) {
		return fmt.Errorf("%s at scale %g: HTTP body (%d solutions) differs from internal/ref (%d)", q.template, verifyScale, len(wire), len(want))
	}
	if !sameMultiset(vp, want) {
		return fmt.Errorf("%s at scale %g: ModeVP (%d solutions) differs from internal/ref (%d)", q.template, verifyScale, len(vp), len(want))
	}
	return nil
}
