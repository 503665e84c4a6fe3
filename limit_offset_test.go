package s2rdf

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"slices"
	"testing"

	"s2rdf/internal/ref"
	"s2rdf/internal/sparql"
)

// TestLimitOffsetExtremes runs LIMIT and OFFSET at their extremes — LIMIT 0,
// OFFSET at and past the result size, OFFSET without LIMIT, and ORDER BY …
// LIMIT k OFFSET o with o+k past MaxInt, where the top-k window overflows
// and the full sort runs — through Store.Query and through the HTTP
// handler, buffered and streamed, over one scan and over a join (whose
// ORDER BY … LIMIT the engine can fuse into the final join). Every answer
// is checked against internal/ref: in order under ORDER BY ?p, a total
// order here (?p is unique per solution), and as a set otherwise. Negative,
// decimal and out-of-range counts are rejected.
func TestLimitOffsetExtremes(t *testing.T) {
	triples := rankedTriples(400)
	st := Load(triples, Options{})
	servers := []struct {
		name   string
		stream bool
		url    string
	}{
		{"buffered", false, startServer(t, NewHandler(st, ServerOptions{StreamThreshold: 1 << 20})).URL},
		{"streamed", true, startServer(t, NewHandler(st, ServerOptions{StreamThreshold: 64})).URL},
	}
	const maxInt = "9223372036854775807"
	bases := []struct {
		query string
		vars  []string
		size  int
	}{
		{`SELECT ?p ?s WHERE { ?p <urn:score> ?s }`, []string{"p", "s"}, 400},
		{`SELECT ?p ?s ?r WHERE { ?p <urn:score> ?s . ?p <urn:rank> ?r }`, []string{"p", "s", "r"}, 200},
	}
	for _, b := range bases {
		n := b.size
		cases := []struct {
			mods string
			rows int
		}{
			{"LIMIT 0", 0},
			{"ORDER BY ?p LIMIT 0", 0},
			{"ORDER BY ?p LIMIT 0 OFFSET 5", 0},
			{fmt.Sprintf("OFFSET %d", n), 0},
			{fmt.Sprintf("OFFSET %d", n+1), 0},
			{fmt.Sprintf("ORDER BY ?p LIMIT 5 OFFSET %d", n), 0},
			{fmt.Sprintf("ORDER BY ?p OFFSET %d", n-1), 1},
			{fmt.Sprintf("ORDER BY DESC(?p) LIMIT 3 OFFSET %d", n-2), 2},
			{"OFFSET 10", n - 10},
			{"ORDER BY ?p OFFSET 10", n - 10},
			{"ORDER BY DESC(?p) OFFSET 10", n - 10},
			{"ORDER BY ?p LIMIT 3 OFFSET 2", 3},
			{"LIMIT " + maxInt, n},
			{"ORDER BY ?p LIMIT " + maxInt, n},
			{"ORDER BY ?p LIMIT 9223372036854775806 OFFSET 1", n - 1},
			{"ORDER BY ?p LIMIT " + maxInt + " OFFSET 1", n - 1},
			{"ORDER BY ?p LIMIT 5 OFFSET " + maxInt, 0},
			{"ORDER BY ?p LIMIT " + maxInt + " OFFSET " + maxInt, 0},
		}
		for _, c := range cases {
			src := b.query + " " + c.mods
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			var want []string
			for _, sol := range ref.EvalQuery(triples, q) {
				want = append(want, sol["p"].Value())
			}
			if len(want) != c.rows {
				t.Fatalf("%s: the reference has %d solutions, want %d", src, len(want), c.rows)
			}
			ordered := len(q.OrderBy) > 0
			check := func(path string, got []string) {
				t.Helper()
				if !ordered {
					got, want := slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, %s: %d solutions, the reference %d (as sets)", src, path, len(got), len(want))
					}
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s: %d solutions %.60v, the reference %d %.60v", src, path, len(got), got, len(want), want)
				}
			}

			res, err := st.Query(src)
			if err != nil {
				t.Fatalf("%s: Store.Query: %v", src, err)
			}
			p := slices.Index(res.Vars, "p")
			var got []string
			for _, row := range res.Rows {
				got = append(got, row[p].Value())
			}
			check("Store.Query", got)

			for _, srv := range servers {
				resp, err := http.Get(srv.url + "/sparql?query=" + url.QueryEscape(src))
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					t.Fatalf("%s, %s: status %d", src, srv.name, resp.StatusCode)
				}
				streamed := resp.Header.Get("X-S2RDF-Streaming") == "true"
				var doc resultsDoc
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("%s, %s: %v", src, srv.name, err)
				}
				if wantStream := srv.stream && c.rows > 64; streamed != wantStream {
					t.Errorf("%s, %s: streamed %v, want %v", src, srv.name, streamed, wantStream)
				}
				if !reflect.DeepEqual(doc.Head.Vars, b.vars) {
					t.Errorf("%s, %s: head vars %v, want %v", src, srv.name, doc.Head.Vars, b.vars)
				}
				got = got[:0]
				for _, bind := range doc.Results.Bindings {
					got = append(got, bind["p"]["value"])
				}
				check(srv.name, got)
			}
		}
		// A count outside the grammar's unsigned INTEGER is a syntax error
		// on every path, never "no limit" or a truncated count.
		for _, mods := range []string{"LIMIT -1", "OFFSET -1", "LIMIT 2.5", "LIMIT 9223372036854775808"} {
			src := b.query + " " + mods
			if _, err := st.Query(src); err == nil {
				t.Errorf("%s: Store.Query accepted it", src)
			}
			for _, srv := range servers {
				resp, err := http.Get(srv.url + "/sparql?query=" + url.QueryEscape(src))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s, %s: status %d, want 400", src, srv.name, resp.StatusCode)
				}
			}
		}
	}
}
