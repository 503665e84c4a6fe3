package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// bodyTail is how a complete SPARQL-JSON SELECT document ends. A response
// cut short, or one closed by the server's trailing "error" member, ends
// otherwise.
const bodyTail = "\n]}}\n"

// client sends queries over one keep-alive connection of a shared
// transport and drains every body through one reused buffer, so that the
// process's allocations stay the server's.
type client struct {
	http *http.Client
	url  string
	buf  []byte
	// rng instantiates this client's fresh queries; seeded per client, so
	// a run's requests are a function of the seed alone.
	rng *rand.Rand
}

// newClients returns one client per connection of a fresh transport.
func newClients(url string, seed int64) (*http.Transport, []*client) {
	tr := &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}
	clients := make([]*client, connections)
	for i := range clients {
		clients[i] = &client{
			http: &http.Client{Transport: tr},
			url:  url,
			buf:  make([]byte, 256<<10),
			rng:  rand.New(rand.NewSource(seed*1000003 + int64(i))),
		}
	}
	return tr, clients
}

// reply is what the client observed for one request.
type reply struct {
	latency time.Duration // start → last body byte
	ttfb    time.Duration // start → first body byte
	rows    int64
	bytes   int64
	// fail names why the request counts as failed ("" for a good reply).
	fail string
	// header is kept only when the caller asked for it (traced runs).
	header http.Header
}

// do sends q and reads the whole reply. start is when the request counts
// as sent: now for a closed loop, the due time for an open loop. The cheap
// checks every timed request gets are here: status 200, a complete document
// tail, and the verified row count where one is known. Each binding starts
// on its own line and the tail holds two more newlines; terms are
// JSON-escaped, so no other newline occurs.
func (c *client) do(q *query, start time.Time, keepHeader bool) reply {
	var r reply
	req, err := http.NewRequest(http.MethodPost, c.url, strings.NewReader(q.text))
	if err != nil {
		r.fail = "request: " + err.Error()
		return r
	}
	req.Header.Set("Content-Type", "application/sparql-query")
	resp, err := c.http.Do(req)
	if err != nil {
		r.latency = time.Since(start)
		r.fail = "transport: " + err.Error()
		return r
	}
	defer resp.Body.Close()
	if keepHeader {
		r.header = resp.Header
	}
	var tail [len(bodyTail)]byte
	newlines := int64(0)
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			if r.bytes == 0 {
				r.ttfb = time.Since(start)
			}
			r.bytes += int64(n)
			newlines += int64(bytes.Count(c.buf[:n], []byte{'\n'}))
			if n >= len(tail) {
				copy(tail[:], c.buf[n-len(tail):n])
			} else {
				copy(tail[:], tail[n:])
				copy(tail[len(tail)-n:], c.buf[:n])
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.latency = time.Since(start)
			r.fail = "body: " + err.Error()
			return r
		}
	}
	r.latency = time.Since(start)
	r.rows = newlines - 2
	switch {
	case resp.StatusCode != http.StatusOK:
		r.rows = 0
		r.fail = fmt.Sprintf("status %d", resp.StatusCode)
	case string(tail[:]) != bodyTail:
		r.fail = "truncated body or trailing error member"
	case q.wantRows >= 0 && r.rows != q.wantRows:
		r.fail = fmt.Sprintf("%s: %d rows, verified count is %d", q.template, r.rows, q.wantRows)
	}
	return r
}
