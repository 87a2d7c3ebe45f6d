package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"mochy/client"
	"mochy/internal/server"
	"mochy/internal/store"
)

// daemon is an embedded mochyd on a loopback listener, driven through the
// client SDK exactly as an external daemon would be.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	tr      *http.Transport
	c       *client.Client
	dataDir string        // "" when running without a store
	served  chan struct{} // closed once Serve has returned
	serr    error
}

// startDaemon starts mochyd with span recording off. A non-empty dataDir
// makes it durable: uploads become segments and live mutations append to a
// write-ahead log there. conns bounds the client's idle connection pool.
func startDaemon(ctx context.Context, dataDir string, conns int) (*daemon, error) {
	cfg := server.Config{TraceBuffer: -1}
	if dataDir != "" {
		st, err := store.Open(dataDir)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		cfg.Store = st
	}
	srv := server.New(cfg)
	if _, err := srv.Recover(); err != nil {
		srv.Close()
		return nil, fmt.Errorf("recover store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: conns}
	d := &daemon{
		srv:     srv,
		hs:      &http.Server{Handler: srv},
		tr:      tr,
		c:       client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: tr})),
		dataDir: dataDir,
		served:  make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		if err := d.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			d.serr = err
		}
	}()
	if _, err := d.c.Health(ctx); err != nil {
		d.close()
		return nil, fmt.Errorf("health check: %w", err)
	}
	return d, nil
}

// close drains HTTP traffic, closes the server (flushing the store) and
// removes the data dir. It returns once the serving goroutine has exited.
func (d *daemon) close() error {
	// The client transport may hold a connection it dialed but never sent
	// a request on; Shutdown would wait for it to age out as idle.
	d.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = d.serr
	}
	if d.dataDir != "" {
		if rerr := os.RemoveAll(d.dataDir); err == nil {
			err = rerr
		}
	}
	return err
}

// heapSampler tracks the peak heap, live objects and not-yet-collected
// garbage alike, sampled every 50 ms until stop is called. Only the
// sampling goroutine touches peak between start and stop.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.sample()
			case <-h.stopc:
				return
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	if v := readMetric("/memory/classes/heap/objects:bytes"); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak in MB (10^6 bytes).
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.sample()
	return float64(h.peak) / 1e6
}

// liveHeapMB collects garbage and returns the heap still reachable, in MB.
// Unlike a sampled peak it does not depend on when collections happen to
// run, so it repeats from run to run.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes")) / 1e6
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes reads the process's cumulative heap allocation counter.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }
