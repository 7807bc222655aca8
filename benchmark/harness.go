package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// harness is one in-process daemon: a store the benchmark can read
// Stats() from, the real handler configured like roledietd's flag
// defaults, and a loopback listener.
type harness struct {
	store   *store.Store
	handler http.Handler
	srv     *httptest.Server
	http    *http.Client
}

var logf = log.New(os.Stderr, "benchmark: ", 0).Printf

func newHarness(clients int) (*harness, error) {
	st, err := store.New(store.Options{MaxBytes: 512 << 20, TTL: time.Hour, Logf: logf})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	h := server.NewHandler(server.Options{
		Store:               st,
		MaxBodyBytes:        256 << 20,
		RequestTimeout:      5 * time.Minute,
		MaxConcurrent:       2 * runtime.GOMAXPROCS(0),
		DefaultWorkers:      0,
		ScheduleMinInterval: 30 * time.Second,
		Logf:                logf,
	})
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &harness{
		store:   st,
		handler: h,
		srv:     httptest.NewServer(h),
		http:    &http.Client{Transport: tr},
	}, nil
}

// close stops the listener after its in-flight requests, then the
// handler's background work and the store's sweeper.
func (h *harness) close() {
	h.http.CloseIdleConnections()
	h.srv.Close()
	if c, ok := h.handler.(io.Closer); ok {
		if err := c.Close(); err != nil {
			logf("close handler: %v", err)
		}
	}
	h.store.Close()
}

// client is one closed-loop caller with its own reusable response
// buffer, so reading replies adds little to the allocation count.
type client struct {
	id   int
	h    *harness
	next int // index of the client's next op
	body bytes.Buffer

	reqBytes, respBytes int // this op's body bytes
}

// call sends one request and reads the whole response into c.body. It
// fails unless the status is want and, when xcache is set, the X-Cache
// header matches.
func (c *client) call(method, path string, body []byte, want int, xcache string) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.h.srv.URL+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.h.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	c.reqBytes += len(body)
	c.respBytes += c.body.Len()
	if resp.StatusCode != want {
		msg := c.body.Bytes()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(msg))
	}
	if got := resp.Header.Get("X-Cache"); xcache != "" && got != xcache {
		return fmt.Errorf("%s %s: X-Cache %q, want %q", method, path, got, xcache)
	}
	return nil
}

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	wall  time.Duration
	cpu   time.Duration // user + system, all threads
	alloc float64       // heap bytes allocated
	gcs   float64       // completed GC cycles
	gcCPU float64       // runtime's estimate of GC CPU seconds
}

var (
	epoch          = time.Now()
	usageMetricIDs = []string{
		"/gc/heap/allocs:bytes",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
	}
)

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(usageMetricIDs))
	for i, name := range usageMetricIDs {
		s[i].Name = name
	}
	metrics.Read(s)
	num := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return usage{
		wall:  time.Since(epoch),
		cpu:   time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)),
		alloc: num(0),
		gcs:   num(1),
		gcCPU: num(2),
	}
}

func (u usage) minus(v usage) usage {
	return usage{u.wall - v.wall, u.cpu - v.cpu, u.alloc - v.alloc, u.gcs - v.gcs, u.gcCPU - v.gcCPU}
}

func (u usage) plus(v usage) usage {
	return usage{u.wall + v.wall, u.cpu + v.cpu, u.alloc + v.alloc, u.gcs + v.gcs, u.gcCPU + v.gcCPU}
}

// meter sums resource use over the timed window, leaving out the
// untimed work an op does between pause and resume.
type meter struct {
	total usage
	from  usage
}

func (m *meter) resume() { m.from = readUsage() }
func (m *meter) pause()  { m.total = m.total.plus(readUsage().minus(m.from)) }

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is what one closed-loop window measured.
type window struct {
	latMS     []float64
	use       usage
	attempted int
	failures  []string
}

// keepEvery is the content-check stride: every 16th response, plus each
// window's last, is checked after the window.
const keepEvery = 16

// runWindow drives every client in a closed loop until each has spent
// budget inside its own timed ops, issued at least minOps of them, and
// ended on a multiple of the workload's whole ops. With a tracer, each op
// is followed by its replay through the layers' public functions.
func runWindow(w *workload, d runner, clients []*client, budget time.Duration, minOps int, t *tracer) *window {
	var (
		mu  sync.Mutex
		win = &window{}
		m   meter
		wg  sync.WaitGroup
	)
	paused := len(clients) == 1
	fail := func(err error) {
		mu.Lock()
		win.failures = append(win.failures, err.Error())
		mu.Unlock()
	}
	m.resume()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var spent time.Duration
			for n := 0; spent < budget || n < minOps || n%w.whole != 0; n++ {
				i := c.next
				c.next++
				c.reqBytes, c.respBytes = 0, 0
				op, httpSpan := 0, 0
				if t != nil {
					op = t.nextOp()
					httpSpan = t.begin("http", 0, op)
				}
				start := time.Now()
				err := d.do(c, i)
				lat := time.Since(start)
				if t != nil {
					t.end(httpSpan)
				}
				spent += lat
				mu.Lock()
				win.latMS = append(win.latMS, ms(lat))
				win.attempted++
				mu.Unlock()
				if err != nil {
					fail(err)
				}
				last := spent >= budget && n+1 >= minOps && (n+1)%w.whole == 0
				keep := err == nil && (n%keepEvery == keepEvery-1 || last)
				// With one client the op's follow-up is left out of the
				// window's counters; with several it must stay cheap.
				if paused {
					m.pause()
				}
				if err := d.after(c, i, keep); err != nil {
					fail(err)
				}
				if paused {
					m.resume()
				}
				if t == nil || err != nil {
					continue
				}
				t.value("server.request_bytes", float64(c.reqBytes))
				t.value("server.response_bytes", float64(c.respBytes))
				rp := t.begin("replay", 0, op)
				rerr := d.replay(t, rp, op, c, i)
				t.end(rp)
				if rerr != nil {
					fail(fmt.Errorf("replay op %d: %w", i, rerr))
					continue
				}
				t.value("server.residual_ms", ms(lat)-ms(t.covered(rp)))
			}
		}(c)
	}
	wg.Wait()
	m.pause()
	win.use = m.total
	return win
}

// warmUp runs each client's first ops untimed, so lazy set-up inside the
// program and the loopback connections exist before timing starts.
func warmUp(w *workload, d runner, clients []*client) error {
	for _, c := range clients {
		for n := 0; n < w.warmup; n++ {
			i := c.next
			c.next++
			if err := d.do(c, i); err != nil {
				return fmt.Errorf("warm-up op %d: %w", i, err)
			}
			if err := d.after(c, i, false); err != nil {
				return fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
	}
	return nil
}
