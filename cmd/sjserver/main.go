// Command sjserver runs the encrypted-DBMS provider: a TCP server that
// stores uploaded ciphertext tables and executes Secure Join queries
// against them. It holds no key material. With -data the table store is
// durable: committed uploads (and their SSE indexes) are persisted to
// the directory and recovered on the next start, so a restart loses
// nothing; without it tables live in memory only.
//
//	sjserver -listen 127.0.0.1:7788 -data /var/lib/sjserver
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7788", "address to listen on")
	quiet := flag.Bool("quiet", false, "disable request logging")
	data := flag.String("data", "", "directory for the durable table store (empty = in-memory only)")
	metricsAddr := flag.String("metrics", "", "address for the HTTP /metrics + /healthz endpoint (empty = disabled)")
	idleTimeout := flag.Duration("idletimeout", 0, "close connections idle longer than this, e.g. 5m (0 = never)")
	jobWorkers := flag.Int("job-workers", 0, "joins executing at once, sync and async alike; joins beyond the pool's bounded queue are shed (0 = max(2, GOMAXPROCS))")
	jobTTL := flag.Duration("job-ttl", 0, "keep finished async job results this long, e.g. 30m (0 = 1h default, negative = forever)")
	flag.Parse()

	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "[sjserver] ", log.LstdFlags)
	}
	srv, err := newServer(logger, *data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjserver:", err)
		os.Exit(1)
	}
	srv.SetIdleTimeout(*idleTimeout)
	srv.SetJobWorkers(*jobWorkers)
	srv.SetJobTTL(*jobTTL)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sjserver:", err)
		os.Exit(1)
	}
	fmt.Printf("sjserver listening on %s\n", addr)
	if *metricsAddr != "" {
		maddr, err := srv.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sjserver:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics, health on http://%s/healthz\n", maddr, maddr)
	}

	// Graceful shutdown on SIGINT/SIGTERM: stop accepting, let in-flight
	// joins finish writing their terminal frames, then exit. A second
	// signal while draining aborts immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("received %s, draining in-flight requests (signal again to abort)\n", s)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "sjserver: forced shutdown")
		os.Exit(1)
	}()
	srv.Close()
	fmt.Println("shutdown complete")
}
