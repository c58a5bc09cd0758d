package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one HTTP call; no healthy call comes near it.
const requestTimeout = 60 * time.Second

// client drives crhd over HTTP from this process with at most conns
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string, conns int) *client {
	// A fresh Transport uses no proxy: one keep-alive HTTP/1.1
	// connection per worker, straight to crhd.
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// call is one HTTP call's outcome and client-side timeline.
type call struct {
	status int
	// start is when the call began; wrote when the request was fully
	// written, first when the first response byte arrived (both zero on
	// untraced calls), end when the body had been read.
	start, wrote, first, end time.Time
}

func (r call) ms() float64 { return ms(r.end.Sub(r.start)) }

// do sends one request and reads the whole response body into buf. With a
// non-nil span log it records the call as a span named name with three
// children: name.send (until the request is written), name.ttfb (until
// the first response byte) and name.body (until the last).
func (c *client) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer, sp *spanLog, name string, req int64) (call, error) {
	var r call
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	// The transport reports these from its own goroutines, as offsets
	// from r.start; 0 means not seen.
	var wrote, first atomic.Int64
	if sp != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(r.start))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(r.start))) },
		})
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return r, err
	}
	buf.Reset()
	r.start = time.Now()
	resp, err := c.http.Do(hreq)
	if err != nil {
		return r, err
	}
	_, err = buf.ReadFrom(resp.Body)
	r.end = time.Now()
	_ = resp.Body.Close() // fully read; closing only returns the connection
	r.status = resp.StatusCode
	if err != nil {
		return r, fmt.Errorf("read %s %s: %w", method, path, err)
	}
	if sp != nil && wrote.Load() > 0 && first.Load() > 0 {
		r.wrote = r.start.Add(time.Duration(wrote.Load()))
		r.first = r.start.Add(time.Duration(first.Load()))
		id := sp.add(name, 0, req, r.start, r.end)
		sp.add(name+".send", id, req, r.start, r.wrote)
		sp.add(name+".ttfb", id, req, r.wrote, r.first)
		sp.add(name+".body", id, req, r.first, r.end)
	}
	return r, nil
}

// closedLoop runs ops 0..n-1 on conns workers, each starting its next op
// only when its previous one has returned. It returns the phase's wall
// time, from the first op's start to the last op's end.
func closedLoop(conns, n int, op func(worker, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(w, i)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}
