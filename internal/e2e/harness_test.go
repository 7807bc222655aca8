// Package e2e checks the contracts only a running process can show:
// roledietd daemons on real listeners, restarted on the same store,
// killed mid-job, partitioned in a fleet, and driven alongside the
// rolediet CLI and its webhook receiver. TestMain builds both binaries
// once; TestE2E is skipped under -short.
package e2e

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// patience bounds every wait: daemon boot, polls and exits.
const patience = time.Minute

var (
	binDir string // holds the roledietd and rolediet binaries
	// org400 and org300 are gen.Org exports at scales 400 and 300.
	org400, org300 string
	client         = &http.Client{Timeout: patience}
)

func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() {
		os.Exit(m.Run())
	}
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "rolediet-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", "build", "-o", dir, "repro/cmd/roledietd", "repro/cmd/rolediet")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		return 1
	}
	binDir = dir
	org400, org300 = filepath.Join(dir, "org400.json"), filepath.Join(dir, "org300.json")
	for path, scale := range map[string]string{org400: "400", org300: "300"} {
		if _, err := rolediet("generate", "-org", "-scale", scale, "-out", path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return m.Run()
}

// rolediet runs the CLI to completion and returns its stdout.
func rolediet(args ...string) ([]byte, error) {
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, "rolediet"), args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("rolediet %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}

func cli(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := rolediet(args...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// proc is one child process whose output goes to a log file. The test's
// cleanup kills it and, if the test failed, logs the tail of that file.
type proc struct {
	t      *testing.T
	name   string
	argv   []string
	log    string
	cmd    *exec.Cmd
	exited chan struct{}
	err    error // the exit status, set before exited closes
}

func newProc(t *testing.T, name, bin string, args ...string) *proc {
	p := &proc{t: t, name: name, argv: append([]string{filepath.Join(binDir, bin)}, args...),
		log: filepath.Join(t.TempDir(), name+".log")}
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			out, _ := os.ReadFile(p.log)
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			t.Logf("--- %s log (tail) ---\n%s", name, strings.Join(lines[max(0, len(lines)-40):], "\n"))
		}
	})
	return p
}

// launch starts the process without waiting for it to be ready.
func (p *proc) launch() {
	p.t.Helper()
	f, err := os.OpenFile(p.log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		p.t.Fatal(err)
	}
	defer f.Close()
	cmd := exec.Command(p.argv[0], p.argv[1:]...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		p.t.Fatal(err)
	}
	exited := make(chan struct{})
	p.cmd, p.exited = cmd, exited
	go func() { p.err = cmd.Wait(); close(exited) }()
}

// wait blocks until the process exits and returns its exit status.
func (p *proc) wait() error {
	p.t.Helper()
	select {
	case <-p.exited:
		return p.err
	case <-time.After(patience):
		p.t.Fatalf("%s still running after %s", p.name, patience)
		return nil
	}
}

// kill sends SIGKILL and reaps the process; it is a no-op once it exited.
func (p *proc) kill() {
	if p.cmd != nil {
		_ = p.cmd.Process.Kill() // fails only if it already exited
		<-p.exited
	}
}

// daemon is a roledietd process on a fixed port. Its node ID is unique
// to this test binary, so a readiness probe answered by anyone else's
// daemon on a reused port is never mistaken for it.
type daemon struct {
	*proc
	url, node string
}

func urlOf(port int) string { return fmt.Sprintf("http://127.0.0.1:%d", port) }

// freePort returns a port the OS just reported free.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// newDaemon launches roledietd on port; call healthy before using it.
func newDaemon(t *testing.T, name string, port int, args ...string) *daemon {
	t.Helper()
	node := fmt.Sprintf("%s-%d", name, os.Getpid())
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-node-id", node}, args...)
	d := &daemon{proc: newProc(t, name, "roledietd", args...), url: urlOf(port), node: node}
	d.launch()
	return d
}

// startDaemon launches roledietd on a free port and waits for /healthz.
func startDaemon(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	d := newDaemon(t, name, freePort(t), args...)
	d.healthy()
	return d
}

// healthy waits until /healthz answers 200 with this daemon's node ID.
func (d *daemon) healthy() {
	d.t.Helper()
	eventually(d.t, d.name+" /healthz", func() bool {
		select {
		case <-d.exited:
			d.t.Fatalf("%s exited while booting: %v", d.name, d.err)
		default:
		}
		resp, err := client.Get(d.url + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h struct{ Node string }
		return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Node == d.node
	})
}

// stop sends SIGTERM and requires exit status 0.
func (d *daemon) stop() {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.t.Fatal(err)
	}
	if err := d.wait(); err != nil {
		d.t.Fatalf("%s after SIGTERM: %v, want exit 0", d.name, err)
	}
}

// restart stops the daemon and boots it again with the same arguments,
// so it keeps its port and -store-dir.
func (d *daemon) restart() {
	d.t.Helper()
	d.stop()
	d.launch()
	d.healthy()
}

// eventually polls cond until it holds, failing after patience.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(patience); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up after %s waiting for %s", patience, what)
		}
	}
}

// reply is one HTTP response, read in full.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// call sends body (nil, []byte, string, or a value to encode as JSON),
// fails unless the status is want (any status when want is 0), decodes
// the reply into out when out is non-nil, and returns the reply.
func call(t *testing.T, method, url string, body any, want int, out any) reply {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case nil:
	case []byte:
		buf = b
	case string:
		buf = []byte(b)
	default:
		var err error
		if buf, err = json.Marshal(b); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	r := reply{code: resp.StatusCode, header: resp.Header}
	if r.body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if want != 0 && r.code != want {
		t.Fatalf("%s %s: status %d, want %d: %.300s", method, url, r.code, want, r.body)
	}
	if out != nil {
		if err := json.Unmarshal(r.body, out); err != nil {
			t.Fatalf("%s %s: decode: %v: %.300s", method, url, err, r.body)
		}
	}
	return r
}

// callErr sends a request that must fail with status and error code.
func callErr(t *testing.T, method, url string, body any, status int, code string) reply {
	t.Helper()
	var e struct{ Code string }
	r := call(t, method, url, body, status, &e)
	if e.Code != code {
		t.Fatalf("%s %s: error code %q, want %q: %.300s", method, url, e.Code, code, r.body)
	}
	return r
}

// uploaded is the POST /v1/datasets reply.
type uploaded struct {
	Digest, Owner string
	Degraded      bool
}

// upload registers a dataset the daemon does not hold yet.
func upload(t *testing.T, base, path string) uploaded {
	t.Helper()
	var up uploaded
	call(t, "POST", base+"/v1/datasets", readFile(t, path), http.StatusCreated, &up)
	if up.Digest == "" {
		t.Fatalf("upload %s: no digest", path)
	}
	return up
}

func byRef(digest string) map[string]string { return map[string]string{"dataset_ref": digest} }

// missThenHit posts body twice: the first reply must be an X-Cache
// miss, the second a hit with identical bytes. It returns the body.
func missThenHit(t *testing.T, url string, body any) []byte {
	t.Helper()
	first := call(t, "POST", url, body, http.StatusOK, nil)
	second := call(t, "POST", url, body, http.StatusOK, nil)
	if a, b := first.header.Get("X-Cache"), second.header.Get("X-Cache"); a != "miss" || b != "hit" {
		t.Fatalf("POST %s: X-Cache %q then %q, want miss then hit", url, a, b)
	}
	if !bytes.Equal(first.body, second.body) {
		t.Fatalf("POST %s: cached body differs from the computed one", url)
	}
	return first.body
}

type jobSnapshot struct {
	Status   string
	Progress struct{ Fraction float64 }
}

// waitJob polls a job until it is done; failing or cancelling fails.
func waitJob(t *testing.T, base, id string) (snap jobSnapshot) {
	t.Helper()
	eventually(t, "job "+id, func() bool {
		call(t, "GET", base+"/v1/jobs/"+id, nil, http.StatusOK, &snap)
		if snap.Status == "failed" || snap.Status == "canceled" {
			t.Fatalf("job %s ended %s", id, snap.Status)
		}
		return snap.Status == "done"
	})
	return snap
}

func openSession(t *testing.T, base, digest string) string {
	t.Helper()
	var s struct{ ID string }
	call(t, "POST", base+"/v1/sessions", map[string]string{"base_ref": digest}, http.StatusCreated, &s)
	return s.ID
}

func applyEvents(t *testing.T, base, session string, log []byte, want int) {
	t.Helper()
	var res struct{ Applied int }
	call(t, "POST", base+"/v1/sessions/"+session+"/events", log, http.StatusOK, &res)
	if res.Applied != want {
		t.Fatalf("session %s applied %d events, want %d", session, res.Applied, want)
	}
}

type decision struct {
	Seq                   int64
	Source, Kind, Dataset string
	CacheHit              bool `json:"cache_hit"`
}

func decisions(t *testing.T, base string) []decision {
	t.Helper()
	var page struct{ Items []decision }
	call(t, "GET", base+"/v1/decisions?page_size=1000", nil, http.StatusOK, &page)
	return page.Items
}

var durationField = regexp.MustCompile(`("[A-Za-z]*DurationNanos"):[0-9]+`)

// zeroDurations zeroes the wall-clock fields, the only ones two runs
// of one analysis may differ in.
func zeroDurations(b []byte) []byte { return durationField.ReplaceAll(b, []byte("${1}:0")) }

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
