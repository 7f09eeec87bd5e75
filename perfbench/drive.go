package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 client connection. Requests go out as
// pre-encoded bytes and responses are read into a buffer the connection
// reuses, so the client allocates next to nothing per request and adds
// little to the process's garbage collection, which the server shares.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	c.close()
	nc, err := net.Dial("tcp", addr(c.addr))
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// roundTrip writes one request and reads its whole response. The body
// is valid until the next call. A broken connection is redialled before
// the next request, not retried: the failed request counts as failed.
func (c *conn) roundTrip(wire []byte) (int, []byte, error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	if _, err := c.c.Write(wire); err != nil {
		c.close()
		return 0, nil, err
	}
	status, keep, err := c.readResponse()
	if err != nil || !keep {
		c.close()
	}
	return status, c.body, err
}

// readResponse parses a response with a Content-Length or chunked body,
// as net/http's server writes them.
func (c *conn) readResponse() (status int, keep bool, err error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, _ := bytes.Cut(h, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body = c.body[:0]
	if !chunked {
		if length < 0 {
			return 0, false, fmt.Errorf("response without Content-Length")
		}
		return status, keep, c.readN(length)
	}
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		size, err := strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return 0, false, fmt.Errorf("bad chunk size %q", line)
		}
		if err := c.readN(int(size)); err != nil {
			return 0, false, err
		}
		if _, err := c.br.Discard(2); err != nil { // the chunk's CRLF
			return 0, false, err
		}
		if size == 0 {
			return status, keep, nil
		}
	}
}

// readN appends the next n body bytes to c.body.
func (c *conn) readN(n int) error {
	off := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[off:])
	return err
}

// addr strips the scheme from an httptest URL.
func addr(u string) string {
	if len(u) > 7 && u[:7] == "http://" {
		return u[7:]
	}
	return u
}

// wireRequest encodes one HTTP/1.1 request.
func wireRequest(method, path string, body []byte) []byte {
	if body == nil {
		return []byte(fmt.Sprintf("%s %s HTTP/1.1\r\nHost: perfbench\r\n\r\n", method, path))
	}
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	return append([]byte(head), body...)
}

// get performs one GET on a fresh connection.
func get(base, path string) (int, []byte, error) {
	c, err := dial(base)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	return c.roundTrip(wireRequest("GET", path, nil))
}

// phase holds one phase's per-operation timings in nanoseconds since
// the phase started. In the open loop, due is when the schedule wanted
// the operation sent, release when the pacer handed it to a sender,
// send when a sender started it and done when its last response byte
// arrived. In the closed loop due = release = send.
type phase struct {
	due, release, send, done []int64
	wall                     time.Duration
	failed                   int
}

func newPhase(n int) *phase {
	return &phase{
		due: make([]int64, n), release: make([]int64, n),
		send: make([]int64, n), done: make([]int64, n),
	}
}

// latencies returns done - due for every operation, in milliseconds.
func (p *phase) latencies() []float64 { return diffMs(p.done, p.due) }

func diffMs(a, b []int64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = float64(a[i]-b[i]) / 1e6
	}
	return out
}

// execFunc runs operation i on sender w and reports whether its answer
// was wrong or missing.
type execFunc func(w, i int) error

// openLoop offers n operations at a fixed rate, independent of how fast
// they complete: a stalled system builds a backlog, and every operation
// is timed from its due time, so the backlog shows in the latencies.
// Senders take released operations from an unbounded queue; the pacer
// never waits for them.
func openLoop(p *phase, rate float64, senders int, exec execFunc) {
	n := len(p.due)
	period := float64(time.Second) / rate
	for i := range p.due {
		p.due[i] = int64(float64(i) * period)
	}
	// Sized to every send, so the pacer can release a whole backlog at
	// once without blocking.
	queue := make(chan int32, n)
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				p.send[i] = int64(time.Since(start))
				err := exec(w, int(i))
				p.done[i] = int64(time.Since(start))
				if err != nil {
					failed.Add(1)
					reportFailure(int(i), err)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		pace(start, p.due, p.release, queue)
	}()
	wg.Wait()
	p.wall = time.Since(start)
	p.failed = int(failed.Load())
}

// pace releases operation i once time.Since(start) reaches due[i],
// recording the release time. It runs on its own OS thread with the
// thread's timer slack set to 1 ns and sleeps in nanosleep(2), which on
// a 2-core VM wakes about 7 µs late at the median, where runtime timers
// wake about 0.8 ms late. It wakes spinWindow early and spins the rest
// of the way. Every overdue operation is released at once.
func pace(start time.Time, due, release []int64, queue chan<- int32) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	defer setTimerSlack(0) // 0 restores the thread's default
	for i := 0; i < len(due); {
		now := int64(time.Since(start))
		if d := due[i] - now; d > int64(spinWindow) {
			ts := syscall.NsecToTimespec(d - int64(spinWindow))
			syscall.Nanosleep(&ts, nil)
			continue
		} else if d > 0 {
			continue
		}
		for ; i < len(due) && due[i] <= now; i++ {
			release[i] = now
			queue <- int32(i)
		}
	}
	close(queue)
}

// spinWindow is how early the pacer wakes before a due time; it covers
// nanosleep's median lateness with room to spare, at a cost of a few
// microseconds of spinning per release.
const spinWindow = 12 * time.Microsecond

// setTimerSlack sets the calling thread's timer slack
// (prctl PR_SET_TIMERSLACK).
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}

// closedLoop runs every operation on senders that each start the next
// operation as soon as their previous one completes.
func closedLoop(p *phase, senders int, exec execFunc) {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.due) {
					return
				}
				t := int64(time.Since(start))
				p.due[i], p.release[i], p.send[i] = t, t, t
				err := exec(w, i)
				p.done[i] = int64(time.Since(start))
				if err != nil {
					failed.Add(1)
					reportFailure(i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.failed = int(failed.Load())
}
