// Httpserve: run an UNMODIFIED stdlib net/http server and client over the
// full decomposed stack. sock.Listen returns a real net.Listener and
// sock.Dial a real net.Conn, so http.Serve and http.Transport never learn
// they are speaking through a multiserver userspace TCP — driver, IP,
// packet filter, TCP server, SYSCALL server — instead of the kernel. This
// is the "run ordinary applications unchanged" milestone of the socket-API
// redesign: stdlib-shaped code composes with the paper's crash-recoverable
// stack for free.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"newtos/internal/core"
	"newtos/internal/nic"
	"newtos/internal/sock"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A LAN of two nodes, one gigabit wire, the flagship split-stack config.
	lan, err := core.NewLAN(core.SplitTSO(), 1, nic.Gigabit())
	if err != nil {
		return err
	}
	defer lan.Stop()
	if err := lan.Start(); err != nil {
		return err
	}
	fmt.Println("two NewtOS nodes booted: 7 servers each, channels wired")

	// Web server on node B: http.Serve over a stack-backed net.Listener.
	srvCli, err := sock.NewClient(lan.B.Hub, "httpd")
	if err != nil {
		return err
	}
	ln, err := srvCli.Listen("tcp", ":8080")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello %s, from net/http over a multiserver userspace TCP\n", r.RemoteAddr)
	})
	server := &http.Server{Handler: mux}
	go func() { _ = server.Serve(ln) }()

	// HTTP client on node A: a stock http.Transport whose connections are
	// dialed through the stack.
	cliCli, err := sock.NewClient(lan.A.Hub, "curl")
	if err != nil {
		return err
	}
	tr := &http.Transport{
		DialContext: func(_ context.Context, network, addr string) (net.Conn, error) {
			return cliCli.Dial(network, addr)
		},
	}
	httpc := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	url := fmt.Sprintf("http://%s:8080/hello", lan.IPOf("b", 0))
	for i := 0; i < 3; i++ {
		resp, err := httpc.Get(url)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		fmt.Printf("GET %d: %d %s", i, resp.StatusCode, body)
	}
	// Many-client load: 64 concurrent clients, each with its own TCP
	// connection (ForceAttemptHTTP2 off, no idle reuse across the burst),
	// hammer the same handler. The server side demultiplexes all of them
	// through the stack's listener — the connection-scale story at example
	// size (experiments.TestC100KSmoke holds 10k on one poller goroutine).
	const clients, reqsPer = 64, 4
	var wg sync.WaitGroup
	var okCount atomic.Int64
	errCh := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reqsPer; r++ {
				resp, err := httpc.Get(url)
				if err != nil {
					errCh <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("load GET: %v %s", err, resp.Status)
					return
				}
				okCount.Add(1)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	elapsed := time.Since(start)
	fmt.Printf("load: %d clients x %d requests = %d OK in %v (%.0f req/s)\n",
		clients, reqsPer, okCount.Load(), elapsed.Round(time.Millisecond),
		float64(okCount.Load())/elapsed.Seconds())

	tr.CloseIdleConnections()
	if err := server.Close(); err != nil {
		return err
	}
	fmt.Println("done — stdlib net/http, zero kernel involvement on the data path")
	return nil
}
