package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// stream generates one connection's seeded requests: a fresh uniformly
// random permutation per request, or a draw from a shared working set.
type stream struct {
	rng *rand.Rand
	hot [][]int // read-only working set; nil for fresh permutations
	buf []int
}

func newStream(seed int64, hot [][]int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), hot: hot}
}

// workingSet returns the seeded hot permutations of n ports.
func workingSet(seed int64, size, n int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	set := make([][]int, size)
	for i := range set {
		set[i] = rng.Perm(n)
	}
	return set
}

// next returns the next permutation of n ports. The slice is reused by the
// following call.
func (s *stream) next(n int) []int {
	if s.hot != nil {
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	if cap(s.buf) < n {
		s.buf = make([]int, n)
	}
	p := s.buf[:n]
	for i := range p {
		p[i] = i
	}
	s.rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// hashPerm is FNV-1a over the permutation's entries.
func hashPerm(p []int) uint64 {
	h := uint64(14695981039346656037)
	for _, d := range p {
		h ^= uint64(d)
		h *= 1099511628211
	}
	return h
}

// errMisrouted marks a reply that does not deliver the requested
// permutation; any one fails the run.
var errMisrouted = errors.New("misrouted reply")

// verify checks a route reply word for word: sources[j] is the input whose
// word reached output j, so p[sources[j]] must be j for every output.
func verify(p, sources []int) error {
	if len(sources) != len(p) {
		return fmt.Errorf("%w: %d outputs for %d inputs", errMisrouted, len(sources), len(p))
	}
	for j, s := range sources {
		if s < 0 || s >= len(p) || p[s] != j {
			return fmt.Errorf("%w: output %d received the word of input %d", errMisrouted, j, s)
		}
	}
	return nil
}

// errSizeMismatch is the server's stale-membership answer (TCP status 1, the
// binary front's HTTP 409): the client refetches the port count and retries.
var errSizeMismatch = errors.New("size mismatch")

// tcpClient speaks bnbserve's binary frame protocol over one connection.
type tcpClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte
}

func dialTCP(addr string) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpClient{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// inputs asks for the current aggregate port count (opcode 1).
func (c *tcpClient) inputs() (int, error) {
	if err := c.w.WriteByte(1); err != nil {
		return 0, err
	}
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	var resp [9]byte
	if _, err := io.ReadFull(c.r, resp[:]); err != nil {
		return 0, err
	}
	if resp[0] != 0 {
		return 0, fmt.Errorf("info status %d", resp[0])
	}
	return int(binary.BigEndian.Uint32(resp[1:5])), nil
}

// route sends p and fills sources with the reply, or returns
// errSizeMismatch, or another error for a failed or refused request.
func (c *tcpClient) route(p []int, sources []int) error {
	n := len(p)
	if cap(c.buf) < 5+4*n {
		c.buf = make([]byte, 5+4*n)
	}
	b := c.buf[:5+4*n]
	b[0] = 2
	binary.BigEndian.PutUint32(b[1:5], uint32(n))
	for i, d := range p {
		binary.BigEndian.PutUint32(b[5+4*i:], uint32(d))
	}
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	status, err := c.r.ReadByte()
	if err != nil {
		return err
	}
	switch status {
	case 0:
	case 1:
		return errSizeMismatch
	default:
		return fmt.Errorf("route status %d", status)
	}
	b = c.buf[:4*n]
	if _, err := io.ReadFull(c.r, b); err != nil {
		return err
	}
	for j := range sources[:n] {
		sources[j] = int(binary.BigEndian.Uint32(b[4*j:]))
	}
	return nil
}

func (c *tcpClient) close() { c.conn.Close() }

// tally is what one connection's closed loop observed.
type tally struct {
	lat       []time.Duration // first send to verified reply, per completed route
	attempted int64
	failed    int64
	misrouted int64
	retries   int64 // size-mismatch retries (not failures)
	firstErr  error
	// repeats counts requests whose permutation this connection already
	// sent in the window; a fresh stream must have none.
	repeats int64
}

func (t *tally) add(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.misrouted += o.misrouted
	t.retries += o.retries
	t.repeats += o.repeats
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// maxRetries bounds the size-mismatch retries of one request; a request
// that exhausts them counts as failed.
const maxRetries = 8

// loop runs one closed-loop caller until the deadline: each request waits
// for its verified reply before the next is sent.
func loop(c *tcpClient, st *stream, n int, deadline time.Time) tally {
	var t tally
	sources := make([]int, 0)
	seen := map[uint64]bool{}
	for time.Now().Before(deadline) {
		t.attempted++
		p := st.next(n)
		start := time.Now()
		var err error
		for try := 0; ; try++ {
			if cap(sources) < len(p) {
				sources = make([]int, len(p))
			}
			err = c.route(p, sources[:len(p)])
			if !errors.Is(err, errSizeMismatch) || try == maxRetries {
				break
			}
			t.retries++
			if n, err = c.inputs(); err != nil {
				break
			}
			p = st.next(n)
		}
		if err == nil {
			err = verify(p, sources[:len(p)])
		}
		took := time.Since(start)
		if st.hot == nil {
			h := hashPerm(p)
			if seen[h] {
				t.repeats++
			}
			seen[h] = true
		}
		if err != nil {
			t.failed++
			if errors.Is(err, errMisrouted) {
				t.misrouted++
			}
			if t.firstErr == nil {
				t.firstErr = err
			}
			continue
		}
		t.lat = append(t.lat, took)
	}
	return t
}

// drive runs every client's closed loop until the deadline and merges what
// they saw.
func drive(clients []*tcpClient, streams []*stream, n int, deadline time.Time) tally {
	tallies := make([]tally, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = loop(clients[i], streams[i], n, deadline)
		}(i)
	}
	wg.Wait()
	var all tally
	for _, t := range tallies {
		all.add(t)
	}
	return all
}
