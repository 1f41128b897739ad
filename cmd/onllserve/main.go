// Command onllserve is the batched network front end over one ONLL
// instance (internal/server, DESIGN.md §3.10). It binds a TCP or unix
// listener, maps connections onto the instance's simulated processes,
// and batches updates so one log append + one persistent fence covers
// many client requests:
//
//	onllserve -addr 127.0.0.1:7171 -nprocs 8 -batch 64
//
// The service is measured by bench/ (svc-read, svc-update-persist,
// svc-open-mixed), which prices the same instance configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/objects"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/workload"
)

var (
	addrFlag = flag.String("addr", "127.0.0.1:0", "listen address")
	netFlag  = flag.String("net", "tcp", "listen network: tcp or unix")
	nprocsF  = flag.Int("nprocs", 4, "simulated processes (1 batcher + n-1 read handles)")
	batchF   = flag.Int("batch", 64, "most updates one fence covers (a batch closes earlier when the queue runs dry)")
	timingsF = flag.String("timings", "", "after shutdown, dump per-request timing CSV to this file")
)

func main() {
	flag.Parse()
	if err := serve(nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "onllserve:", err)
		os.Exit(1)
	}
}

// coreConfig is the served instance's configuration: the pipeline
// bench/config.go prices, with a batch record wide enough for a full
// batch plus the helping tail.
func coreConfig(nprocs, batch int) core.Config {
	return core.Config{
		NProcs:         nprocs,
		LogCapacity:    workload.ThroughputLogCapacity(nprocs),
		LogMaxOps:      nprocs + batch,
		ReadFastPath:   true,
		DeltaSnapshots: true,
	}
}

// serve runs the server until SIGINT/SIGTERM arrives or stop is
// closed, then drains. up, when non-nil, receives the server once it
// is listening.
func serve(stop <-chan struct{}, up chan<- *server.Server) error {
	if *batchF < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", *batchF)
	}
	if *nprocsF < 2 {
		return fmt.Errorf("-nprocs must be at least 2 (1 batcher + 1 read handle), got %d", *nprocsF)
	}
	pool := pmem.New(workload.ThroughputPoolBytes(*nprocsF), nil)
	in, err := core.New(pool, objects.OrderedMapSpec{}, coreConfig(*nprocsF, *batchF))
	if err != nil {
		return err
	}
	timingCap := -1 // no -timings: no capture, so no per-request clock reads
	if *timingsF != "" {
		timingCap = 0
	}
	s, err := server.New(in, server.Config{
		Batcher:   server.BatcherConfig{MaxBatch: *batchF},
		TimingCap: timingCap,
	})
	if err != nil {
		return err
	}
	if err := s.Listen(*netFlag, *addrFlag); err != nil {
		return err
	}
	fmt.Printf("onllserve: listening on %s %s (batch<=%d)\n", *netFlag, s.Addr(), *batchF)
	if up != nil {
		up <- s
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case <-stop:
	}
	fmt.Println("onllserve: draining...")
	s.Close()
	st := s.Stats()
	fmt.Printf("onllserve: drained clean: %d updates in %d flushes, %d reads, %d conns\n",
		st.Updates, st.Flushes, st.Reads, st.Conns)
	return dumpTimings(s)
}

func dumpTimings(s *server.Server) error {
	if *timingsF == "" {
		return nil
	}
	f, err := os.Create(*timingsF)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.DumpTimings(f)
}
