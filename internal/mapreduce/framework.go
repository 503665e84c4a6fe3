// Package mapreduce implements a miniature MapReduce framework plus the two
// MapReduce-based SPARQL baselines the paper evaluates: SHARD (one job per
// triple pattern, "Clause-Iteration") and PigSPARQL (multi-join
// optimization over a vertically partitioned store).
//
// The framework is deliberately faithful to the cost structure that makes
// these systems slow in the paper: every map/shuffle/reduce stage
// materializes to local files, and every job charges a configurable fixed
// overhead (job setup, scheduling, JVM start — the things that give
// MapReduce its latency floor). Wall time is measured; simulated time adds
// jobs × JobOverhead without sleeping, so the paper's orders-of-magnitude
// gap can be reported without waiting for it.
package mapreduce

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Job is one MapReduce job.
type Job struct {
	Name string
	// Inputs are line-oriented files.
	Inputs []string
	// Map receives the input index the line came from and the line, and
	// emits key/value pairs.
	Map func(src int, line string, emit func(key, value string))
	// Reduce receives one key with all its values and emits output lines.
	Reduce func(key string, values []string, emit func(line string))
	// Reducers is the reduce-task count (default 4).
	Reducers int
}

// Stats aggregates framework work counters.
type Stats struct {
	Jobs          int
	LinesRead     int64
	BytesShuffled int64
	LinesWritten  int64
}

// Framework runs jobs in a working directory.
type Framework struct {
	// Dir holds intermediate and output files.
	Dir string
	// JobOverhead is the fixed per-job latency charged to simulated time.
	JobOverhead time.Duration

	mu    sync.Mutex
	stats Stats
	seq   int
}

// New returns a framework with the given working directory and a 10 s
// simulated job overhead (the order of magnitude Hadoop exhibits).
func New(dir string) *Framework {
	return &Framework{Dir: dir, JobOverhead: 10 * time.Second}
}

// Stats returns a copy of the counters.
func (f *Framework) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Run executes a job and returns the path of its output file.
func (f *Framework) Run(job Job) (string, error) {
	if job.Reducers <= 0 {
		job.Reducers = 4
	}
	f.mu.Lock()
	f.seq++
	seq := f.seq
	f.stats.Jobs++
	f.mu.Unlock()

	// --- map phase: spill partitioned key/value pairs to disk ---
	spills := make([][]string, job.Reducers) // per-reducer lines "key\tvalue"
	var linesRead, bytesShuffled int64
	for src, input := range job.Inputs {
		fh, err := os.Open(input)
		if err != nil {
			return "", fmt.Errorf("mapreduce: job %s: %w", job.Name, err)
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
		for sc.Scan() {
			linesRead++
			line := sc.Text()
			job.Map(src, line, func(key, value string) {
				r := int(hashString(key)) % job.Reducers
				rec := key + "\x00" + value
				bytesShuffled += int64(len(rec))
				spills[r] = append(spills[r], rec)
			})
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return "", fmt.Errorf("mapreduce: job %s: %w", job.Name, err)
		}
	}
	// Materialize the shuffle to disk, one file per reducer, sorted by key
	// (the sort-merge shuffle MapReduce performs).
	shuffleDir := filepath.Join(f.Dir, fmt.Sprintf("job%04d-shuffle", seq))
	if err := os.MkdirAll(shuffleDir, 0o755); err != nil {
		return "", err
	}
	for r := range spills {
		sort.Strings(spills[r])
		if err := writeLines(filepath.Join(shuffleDir, fmt.Sprintf("part-%d", r)), spills[r]); err != nil {
			return "", err
		}
	}

	// --- reduce phase ---
	output := filepath.Join(f.Dir, fmt.Sprintf("job%04d-out", seq))
	out, err := os.Create(output)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(out)
	var linesWritten int64
	emit := func(line string) {
		fmt.Fprintln(w, line)
		linesWritten++
	}
	for r := range spills {
		lines, err := readLines(filepath.Join(shuffleDir, fmt.Sprintf("part-%d", r)))
		if err != nil {
			out.Close()
			return "", err
		}
		for i := 0; i < len(lines); {
			key, _, _ := strings.Cut(lines[i], "\x00")
			j := i
			var values []string
			for j < len(lines) {
				k2, v2, _ := strings.Cut(lines[j], "\x00")
				if k2 != key {
					break
				}
				values = append(values, v2)
				j++
			}
			job.Reduce(key, values, emit)
			i = j
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return "", err
	}
	if err := out.Close(); err != nil {
		return "", err
	}

	f.mu.Lock()
	f.stats.LinesRead += linesRead
	f.stats.BytesShuffled += bytesShuffled
	f.stats.LinesWritten += linesWritten
	f.mu.Unlock()
	return output, nil
}

func hashString(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

func writeLines(path string, lines []string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func readLines(path string) ([]string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var out []string
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}
