package main

// The daemon workloads: the sweep daemon served in-process through
// net/http/httptest, driven by one closed-loop client over one
// connection. daemon-cold posts fresh grids, so every cell misses the
// ledger and is computed and fsync'd; daemon-warm asks again for the
// cells a priming phase journaled, so every cell is a ledger hit.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
)

// digestKeyDaemon names the committed digests of the request sequence;
// both daemon workloads post the same requests for a seed.
const digestKeyDaemon = "daemon"

// committedRequests is how many leading requests have committed
// digests, and the number of requests daemon-warm primes.
const committedRequests = 16

// The request grid: policies x rates x the request's cell seeds, on
// the ZCU102, timing only.
var (
	gridPolicies = []string{"frfs", "met"}
	gridRates    = []float64{1, 2}
)

func gridRequest(label string, seeds []int64) ([]byte, error) {
	return json.Marshal(serve.SweepRequest{
		Tenant:         "perfbench",
		Label:          label,
		Platform:       serve.PlatformSpec{Name: "zcu102"},
		Policies:       gridPolicies,
		RatesJobsPerMS: gridRates,
		Seeds:          seeds,
		JitterSigma:    0.04,
		SkipExecution:  true,
	})
}

// requestSeeds are the cell seeds of the k-th request of the seed's
// sequence: fresh per request, so no two requests share a ledger entry.
func requestSeeds(seed int64, k int) []int64 {
	base := seed*1_000_000 + 2*int64(k)
	return []int64{base, base + 1}
}

// sweepRequest is the k-th request of the seed's sequence, an 8-cell
// grid.
func sweepRequest(seed int64, k int) ([]byte, error) {
	return gridRequest(fmt.Sprintf("req%d", k), requestSeeds(seed, k))
}

// daemon is one in-process server with its HTTP front and client.
type daemon struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
}

// startDaemon opens the ledger under dir and serves the daemon. The
// admission gate allows one closed-loop client unthrottled: the
// defaults (1 request/s, burst 4 per tenant) would measure the token
// bucket instead of the daemon.
func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.New(serve.Options{
		StateDir: dir,
		Workers:  runtime.NumCPU(),
		Admission: serve.AdmissionConfig{
			TenantRate:  1e6,
			TenantBurst: 1e6,
		},
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}
	d.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	resp, err := d.client.Get(d.ts.URL + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the client, the HTTP server and the ledger.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// reqResult is one request's client-side view.
type reqResult struct {
	start, accepted, firstCell, done time.Time
	cells                            int
	cellBytes                        int
	hits, computed                   int
	digest                           string
	results                          [][]byte // per cell, when kept
	// err is set for any failure the client saw: a non-2xx status, a
	// cell_error, an incomplete stream or a missing terminal line.
	err      error
	rejected bool
}

func (r *reqResult) latency() time.Duration { return r.done.Sub(r.start) }

// post sends one sweep request and reads its NDJSON stream to the end,
// keeping each cell's result bytes if keep is set. Every failure,
// transport errors included, lands in the result's err.
func (d *daemon) post(body []byte, keep bool) *reqResult {
	r := &reqResult{start: time.Now()}
	resp, err := d.client.Post(d.ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = fmt.Errorf("transport: %w", err)
		r.done = time.Now()
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		r.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		r.err = fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(msg))
		r.done = time.Now()
		return r
	}
	h := newDigest()
	br := bufio.NewReader(resp.Body)
	var terminal string
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			var ev struct {
				Type       string          `json:"type"`
				Result     json.RawMessage `json:"result"`
				Error      string          `json:"error"`
				Reason     string          `json:"reason"`
				LedgerHits int             `json:"ledger_hits"`
				Computed   int             `json:"computed"`
				Failed     int             `json:"failed"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				r.err = fmt.Errorf("bad stream line %q: %w", line, jerr)
				break
			}
			switch ev.Type {
			case "accepted":
				r.accepted = now
			case "cell":
				if r.cells == 0 {
					r.firstCell = now
				}
				r.cells++
				r.cellBytes += len(line)
				h.Write(ev.Result)
				h.Write([]byte{'\n'})
				if keep {
					r.results = append(r.results, ev.Result)
				}
			case "cell_error":
				r.err = fmt.Errorf("cell_error: %s", ev.Error)
			case "incomplete":
				terminal = ev.Type
				r.err = fmt.Errorf("incomplete: %s", ev.Reason)
			case "done":
				terminal = ev.Type
				r.done = now
				r.hits, r.computed = ev.LedgerHits, ev.Computed
				if ev.Failed > 0 && r.err == nil {
					r.err = fmt.Errorf("done reports %d failed cells", ev.Failed)
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = fmt.Errorf("transport: %w", err)
			break
		}
	}
	if r.done.IsZero() {
		r.done = time.Now()
	}
	if terminal == "" && r.err == nil {
		r.err = errors.New("stream ended without a terminal line")
	}
	r.digest = sum(h)
	return r
}

// daemonStats accumulates one phase's requests.
type daemonStats struct {
	lat, tracedLat, plainLat          []float64
	accept, first, stream, util       []float64
	gcCycles, gcPause, gcMB, gcAllocs []float64
	cells, cellBytes, rejected        int
	wall                              time.Duration
	digests                           []string
}

// phase posts requests in a closed loop for the budget (at least
// minOps), request k being body(k). With tracing on, odd requests are
// traced: spans, GC and CPU deltas.
func (b *bench) phase(d *daemon, minOps int, name string, body func(k int) ([]byte, error),
	check func(k int, r *reqResult)) (*daemonStats, error) {
	ds := &daemonStats{}
	err := b.loop(minOps, func(k int) (time.Duration, error) {
		req, err := body(k)
		if err != nil {
			return 0, err
		}
		traced := b.trace && k%2 == 1
		var m0 runtime.MemStats
		if traced {
			m0 = readMem()
		}
		cpu0 := cpuTime()
		r := d.post(req, false)
		cpu := cpuTime() - cpu0
		b.attempted++
		if r.rejected {
			ds.rejected++
		}
		if r.err != nil {
			b.fail("%s request %d: %v", name, k, r.err)
		} else {
			check(k, r)
		}
		lat := r.latency()
		ds.wall += lat
		ds.lat = append(ds.lat, ms(lat))
		ds.cells += r.cells
		ds.cellBytes += r.cellBytes
		ds.digests = append(ds.digests, r.digest)
		if !traced {
			ds.plainLat = append(ds.plainLat, ms(lat))
			return lat, nil
		}
		g := memDelta(m0, readMem())
		ds.tracedLat = append(ds.tracedLat, ms(lat))
		ds.gcCycles = append(ds.gcCycles, g.cycles)
		ds.gcPause = append(ds.gcPause, g.pauseS)
		ds.gcMB = append(ds.gcMB, g.allocMB)
		ds.gcAllocs = append(ds.gcAllocs, g.allocs)
		ds.util = append(ds.util, cpuUtil(cpu, lat))
		if r.err == nil {
			ds.accept = append(ds.accept, ms(r.accepted.Sub(r.start)))
			ds.first = append(ds.first, ms(r.firstCell.Sub(r.accepted)))
			ds.stream = append(ds.stream, ms(r.done.Sub(r.firstCell)))
		}
		id := b.spans.add("daemon."+name, 0, r.start, r.done)
		if r.err == nil {
			b.spans.addChild("serve.accept", id, r.start, r.accepted)
			b.spans.addChild("serve.first_cell", id, r.accepted, r.firstCell)
			b.spans.addChild("serve.stream", id, r.firstCell, r.done)
		}
		return lat, nil
	})
	return ds, err
}

// reportDaemon sets the end-to-end metrics from the timed phase and,
// when tracing, the serve, GC and CPU layers.
func (b *bench) reportDaemon(ds *daemonStats, hitRatio float64) {
	b.set("throughput_per_s", float64(ds.cells)/ds.wall.Seconds())
	b.set("latency_ms", median(ds.lat))
	if !b.trace {
		return
	}
	b.set("serve.accept_ms_p50", median(ds.accept))
	b.set("serve.first_cell_ms_p50", median(ds.first))
	b.set("serve.stream_ms_p50", median(ds.stream))
	b.set("serve.request_ms_p90", quantile(ds.lat, 0.9))
	b.set("serve.ledger_hit_ratio", hitRatio)
	b.set("serve.bytes_per_cell", float64(ds.cellBytes)/float64(max(ds.cells, 1)))
	b.set("serve.rejected", float64(ds.rejected))
	b.set("gc.cycles", median(ds.gcCycles))
	b.set("gc.pause_s", median(ds.gcPause))
	b.set("gc.alloc_mb", median(ds.gcMB))
	b.set("gc.allocs", median(ds.gcAllocs))
	b.set("sweep.cpu_util", median(ds.util))
	b.set("trace.overhead_frac", median(ds.tracedLat)/median(ds.plainLat)-1)
}

// stateDir makes a fresh daemon state directory under the output
// directory.
func (b *bench) stateDir(tag string) (string, error) {
	root := filepath.Join(outDir, "state")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, b.workload+"-"+tag+"-")
}

// timeDaemonSetup starts the daemon setupRepeats times over the state
// dir dirFor returns (server start and ledger open), keeping the last;
// stopping each earlier one is not timed.
func (b *bench) timeDaemonSetup(dirFor func() (string, error)) (*daemon, error) {
	var d *daemon
	_, err := timeSetup(b, func() (*daemon, error) {
		dir, err := dirFor()
		if err != nil {
			return nil, err
		}
		d, err = startDaemon(dir)
		return d, err
	}, (*daemon).stop)
	if err != nil && d != nil {
		d.stop()
	}
	return d, err
}

// ledgerProbes measures the ledger directly: an fsync'd Put into a
// scratch journal, and a replay (OpenLedger) of the journal at path.
func (b *bench) ledgerProbes(path string, result []byte) error {
	if !b.trace {
		return nil
	}
	start := time.Now()
	l, err := serve.OpenLedger(path)
	if err != nil {
		return err
	}
	b.set("serve.replay_s", time.Since(start).Seconds())
	if err := l.Close(); err != nil {
		return err
	}
	dir, err := b.stateDir("put")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pl, err := serve.OpenLedger(filepath.Join(dir, "ledger.ndjson"))
	if err != nil {
		return err
	}
	var puts []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		if err := pl.Put(fmt.Sprintf("probe-%d", i), result); err != nil {
			pl.Close()
			return err
		}
		puts = append(puts, ms(time.Since(start)))
	}
	b.set("serve.put_ms_p50", median(puts))
	return pl.Close()
}

// sampleResult is a CellResult-shaped payload for the Put probe.
var sampleResult = []byte(`{"policy":"frfs","rate_jobs_per_ms":1,"seed":1,"makespan_ns":100000000,"tasks":1000,"apps":100}`)

func runDaemonCold(b *bench) error {
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	d, err := b.timeDaemonSetup(func() (string, error) {
		dir, err := b.stateDir("cold")
		if err == nil {
			dirs = append(dirs, dir)
		}
		return dir, err
	})
	if err != nil {
		return err
	}
	defer d.stop()
	body := func(k int) ([]byte, error) { return sweepRequest(b.seed, k) }
	hits0 := d.srv.Ledger().Hits()
	cold, err := b.phase(d, committedRequests, "cold", body, func(k int, r *reqResult) {
		if r.computed != r.cells || r.hits != 0 {
			b.fail("cold request %d: %d computed, %d ledger hits of %d cells", k, r.computed, r.hits, r.cells)
			return
		}
		b.checkDigest(digestKeyDaemon, k, r.digest, nil, false)
	})
	if err != nil {
		return err
	}
	b.reportDaemon(cold, float64(d.srv.Ledger().Hits()-hits0)/float64(max(cold.cells, 1)))

	// Replay every cold request warm: the bytes must be identical and
	// every cell a ledger hit.
	for k := range cold.digests {
		req, err := body(k)
		if err != nil {
			return err
		}
		r := d.post(req, false)
		b.attempted++
		switch {
		case r.err != nil:
			b.fail("warm replay %d: %v", k, r.err)
		case r.hits != r.cells || r.computed != 0:
			b.fail("warm replay %d: %d ledger hits, %d computed of %d cells", k, r.hits, r.computed, r.cells)
		case r.digest != cold.digests[k]:
			b.fail("warm replay %d: digest %s, cold %s", k, r.digest, cold.digests[k])
		}
	}
	return b.ledgerProbes(filepath.Join(d.dir, "ledger.ndjson"), sampleResult)
}

// cellKey names a cell by its grid coordinate, read back from its
// result.
type cellKey struct {
	policy string
	rate   float64
	seed   int64
}

func runDaemonWarm(b *bench) error {
	// Priming (not timed): journal the first committedRequests requests
	// of the sequence cold, keeping every cell's bytes.
	dir, err := b.stateDir("warm")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, err := startDaemon(dir)
	if err != nil {
		return err
	}
	cold := map[cellKey][]byte{}
	var seeds []int64
	for k := 0; k < committedRequests; k++ {
		req, err := sweepRequest(b.seed, k)
		if err != nil {
			p.stop()
			return err
		}
		r := p.post(req, true)
		b.attempted++
		if r.err != nil {
			b.fail("priming request %d: %v", k, r.err)
		} else {
			b.checkDigest(digestKeyDaemon, k, r.digest, nil, false)
		}
		for _, raw := range r.results {
			var c serve.CellResult
			if err := json.Unmarshal(raw, &c); err != nil {
				p.stop()
				return fmt.Errorf("priming request %d: %w", k, err)
			}
			cold[cellKey{c.Policy, c.RateJobsPerMS, c.Seed}] = raw
		}
		seeds = append(seeds, requestSeeds(b.seed, k)...)
	}
	if err := p.stop(); err != nil {
		return err
	}

	// One warm request asks for every primed cell at once: 128 ledger
	// hits, large enough that the request's own work, not the HTTP
	// round trip, sets its latency. Its bytes must be the cold ones, in
	// grid order.
	body, err := gridRequest("warm", seeds)
	if err != nil {
		return err
	}
	h := newDigest()
	for _, policy := range gridPolicies {
		for _, rate := range gridRates {
			for _, seed := range seeds {
				h.Write(cold[cellKey{policy, rate, seed}])
				h.Write([]byte{'\n'})
			}
		}
	}
	want := sum(h)

	// Set-up: restart the daemon over the primed journal.
	d, err := b.timeDaemonSetup(func() (string, error) { return dir, nil })
	if err != nil {
		return err
	}
	defer d.stop()
	hits0 := d.srv.Ledger().Hits()
	warm, err := b.phase(d, committedRequests, "warm",
		func(int) ([]byte, error) { return body, nil },
		func(k int, r *reqResult) {
			switch {
			case r.hits != r.cells || r.computed != 0:
				b.fail("warm request %d: %d ledger hits, %d computed of %d cells", k, r.hits, r.computed, r.cells)
			case r.digest != want:
				b.fail("warm request %d: digest %s, cold cells give %s", k, r.digest, want)
			}
		})
	if err != nil {
		return err
	}
	b.reportDaemon(warm, float64(d.srv.Ledger().Hits()-hits0)/float64(max(warm.cells, 1)))
	return b.ledgerProbes(filepath.Join(dir, "ledger.ndjson"), sampleResult)
}
