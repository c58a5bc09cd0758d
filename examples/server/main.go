// Server example: truth discovery as a service. Builds the crhd binary
// into a temporary directory and starts it on an ephemeral port — the
// server subsystem is private to cmd/crhd, so clients, this example
// included, speak only its HTTP API — then drives it as a client would:
//
//  1. create a dataset from the TSV codec format,
//  2. resolve it with CRH and with a baseline,
//  3. fire concurrent identical resolves — the server coalesces them
//     into a single computation,
//  4. live-ingest new observations (advancing the warm incremental
//     I-CRH state) and resolve again at the new version,
//  5. read /v1/stats: cache hit rate, coalesce counters, latency
//     histogram.
//
// Run with:
//
//	go run ./examples/server
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const weatherTSV = `P	high_temp	continuous
P	condition	categorical
V	nyc/07-01	high_temp	wunderground	84
V	nyc/07-01	high_temp	hamweather	79
V	nyc/07-01	high_temp	accuview	85
V	nyc/07-01	condition	wunderground	sunny
V	nyc/07-01	condition	hamweather	rain
V	nyc/07-01	condition	accuview	sunny
V	bos/07-01	high_temp	wunderground	78
V	bos/07-01	high_temp	hamweather	71
V	bos/07-01	high_temp	accuview	79
V	bos/07-01	condition	wunderground	cloudy
V	bos/07-01	condition	hamweather	cloudy
V	bos/07-01	condition	accuview	storm
`

func main() {
	// 0. Boot crhd on an ephemeral port and wait for its listen line.
	srv := startServer()
	defer srv.stop()
	fmt.Println("crhd serving on", srv.base)

	// 1. Create a dataset from the TSV codec.
	srv.post("/v1/datasets/weather", weatherTSV)
	fmt.Println("\n-- created dataset 'weather'")
	show(srv.get("/v1/datasets/weather"))

	// 2. Resolve with CRH defaults, then with the Voting baseline.
	fmt.Println("\n-- CRH resolve")
	show(srv.post("/v1/datasets/weather/resolve", `{}`))
	fmt.Println("\n-- Voting baseline (same registry as crh.Baselines)")
	show(srv.post("/v1/datasets/weather/resolve", `{"method":"Voting"}`))

	// 3. Concurrent identical requests coalesce into one computation.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.post("/v1/datasets/weather/resolve", `{"options":{"weights":"exp-sum"}}`)
		}()
	}
	wg.Wait()
	fmt.Println("\n-- 6 concurrent identical resolves fired (see coalesce/cache stats below)")

	// 4. Live ingest: a new day of observations arrives. The registry
	// appends it, bumps the version, and advances warm I-CRH state;
	// resolves on the old version were never blocked.
	srv.post("/v1/datasets/weather/observations", `{"observations":[
		{"source":"wunderground","object":"nyc/07-02","property":"high_temp","value":88},
		{"source":"hamweather","object":"nyc/07-02","property":"high_temp","value":82},
		{"source":"accuview","object":"nyc/07-02","property":"high_temp","value":87},
		{"source":"wunderground","object":"nyc/07-02","property":"condition","value":"sunny"},
		{"source":"hamweather","object":"nyc/07-02","property":"condition","value":"storm"},
		{"source":"accuview","object":"nyc/07-02","property":"condition","value":"sunny"}
	]}`)
	fmt.Println("\n-- ingested 6 observations; resolve at the new version")
	show(srv.post("/v1/datasets/weather/resolve", `{}`))

	fmt.Println("\n-- warm incremental (I-CRH) state, maintained chunk by chunk")
	show(srv.get("/v1/datasets/weather/incremental"))

	// 5. Operational stats.
	fmt.Println("\n-- /v1/stats")
	show(srv.get("/v1/stats"))
}

// server is the crhd process the example drives. Every exit path stops
// it: main defers stop, and fatalf stops it before exiting.
type server struct {
	base string
	dir  string // holds the crhd binary
	cmd  *exec.Cmd
	once sync.Once
}

// startServer builds crhd into a temporary directory and starts that
// binary, so the signal stop sends reaches crhd itself, not a go run
// wrapper that would leave it running.
func startServer() *server {
	dir, err := os.MkdirTemp("", "crhd-example")
	if err != nil {
		log.Fatal(err)
	}
	srv := &server{dir: dir}
	bin := filepath.Join(dir, "crhd")
	build := exec.Command("go", "build", "-o", bin, "github.com/crhkit/crh/cmd/crhd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		srv.fatalf("build crhd (is the go tool on PATH?): %v", err)
	}
	srv.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-cache", "64", "-decay", "0.9")
	stderr, err := srv.cmd.StderrPipe()
	if err != nil {
		srv.fatalf("crhd stderr: %v", err)
	}
	if err := srv.cmd.Start(); err != nil {
		srv.fatalf("start crhd: %v", err)
	}
	srv.base = srv.awaitListen(stderr)
	return srv
}

// awaitListen scans crhd's stderr for the listen line, returns the base
// URL, and keeps draining the pipe in the background.
func (srv *server) awaitListen(stderr io.Reader) string {
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "crhd: listening on "); ok {
			go func() {
				for sc.Scan() {
				}
			}()
			return "http://" + strings.TrimSpace(addr)
		}
	}
	srv.fatalf("crhd exited before listening: %v", sc.Err())
	return ""
}

// stop shuts crhd down, interrupting it for a graceful exit and killing
// it if it lingers, then removes its directory. Later and concurrent
// calls wait for the first to finish.
func (srv *server) stop() {
	srv.once.Do(func() {
		if srv.cmd != nil && srv.cmd.Process != nil {
			_ = srv.cmd.Process.Signal(os.Interrupt)
			done := make(chan struct{})
			go func() { _ = srv.cmd.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				_ = srv.cmd.Process.Kill()
				<-done
			}
		}
		_ = os.RemoveAll(srv.dir)
	})
}

// fatalf stops crhd, then logs the failure and exits.
func (srv *server) fatalf(format string, args ...any) {
	srv.stop()
	log.Fatalf(format, args...)
}

func (srv *server) get(path string) []byte {
	resp, err := http.Get(srv.base + path)
	if err != nil {
		srv.fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		srv.fatalf("GET %s: %d %s", path, resp.StatusCode, b)
	}
	return b
}

func (srv *server) post(path, body string) []byte {
	req, err := http.NewRequest("POST", srv.base+path, strings.NewReader(body))
	if err != nil {
		srv.fatalf("POST %s: %v", path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		srv.fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		srv.fatalf("POST %s: %d %s", path, resp.StatusCode, b)
	}
	return b
}

// show pretty-prints a JSON response.
func show(raw []byte) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		fmt.Println(string(raw))
		return
	}
	out, _ := json.MarshalIndent(v, "", "  ")
	fmt.Println(string(out))
}
