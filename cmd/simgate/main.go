// Command simgate is the similarity cloud's HTTP/JSON gateway: per-tenant
// API keys over the unified Search interface, admission control that
// degrades approximate fidelity before refusing, and a Prometheus /metrics
// endpoint.
//
// Demo deployment (each tenant gets its own in-process index seeded with
// clustered data — zero setup, for trying the HTTP API and load testing):
//
//	simgate -addr :8080 -tenants alice=alice-key,bob=bob-key
//
//	curl -s -H 'X-API-Key: alice-key' -d '{"kind":"approx-knn","vec":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8],"k":3}' \
//	    http://localhost:8080/v1/search
//
// Encrypted deployment (the gateway holds each tenant's secret key and
// fronts a running simserver; clients keep their keys off every box that
// speaks HTTP to the world except this one):
//
//	simgate -addr :8080 -upstream 127.0.0.1:4040 -tenants alice=alice-key=alice.simckey
//
// Admission control is shared across tenants: -max-inflight caps the
// concurrently served requests, between -shed-start and the cap the
// gateway steps approximate queries' CandSize down to -shed-floor, and
// -tenant-qps gives every tenant its own token bucket so one tenant's
// flood cannot starve another's quota.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"simcloud/internal/core"
	"simcloud/internal/gateway"
	"simcloud/internal/secret"
	"simcloud/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		tenantsSpec = flag.String("tenants", "demo=demo-key", "comma-separated tenants: name=apikey (demo mode) or name=apikey=keyfile (-upstream mode)")
		upstream    = flag.String("upstream", "", "encrypted simserver address; empty runs per-tenant in-process demo indexes")
		maxLevel    = flag.Int("max-level", 8, "index max level (-upstream: must match the server)")
		nObjects    = flag.Int("n", 2000, "demo mode: objects per tenant index")
		dim         = flag.Int("dim", 8, "demo mode: vector dimensionality")
		numPivots   = flag.Int("pivots", 16, "demo mode: pivots per tenant index")
		maxInflight = flag.Int("max-inflight", gateway.DefaultMaxInflight, "hard cap on concurrently served requests (negative disables admission control)")
		shedStart   = flag.Float64("shed-start", gateway.DefaultShedStart, "inflight fraction of -max-inflight where CandSize shedding starts")
		shedFloor   = flag.Float64("shed-floor", gateway.DefaultShedFloor, "lowest CandSize multiplier shedding applies")
		tenantQPS   = flag.Float64("tenant-qps", 0, "per-tenant token-bucket rate in queries/s (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant token-bucket capacity (0 = 2x -tenant-qps)")
	)
	flag.Parse()

	tenants, err := buildTenants(*tenantsSpec, *upstream, *maxLevel, *nObjects, *dim, *numPivots)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgate: %v\n", err)
		os.Exit(1)
	}
	gw, err := gateway.New(gateway.Config{
		Tenants: tenants,
		Admission: gateway.Admission{
			MaxInflight: *maxInflight,
			ShedStart:   *shedStart,
			ShedFloor:   *shedFloor,
			TenantQPS:   *tenantQPS,
			TenantBurst: *tenantBurst,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgate: %v\n", err)
		os.Exit(1)
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simgate: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: gw}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "simgate: %v\n", err)
			os.Exit(1)
		}
	}()
	mode := "demo (per-tenant in-process indexes)"
	if *upstream != "" {
		mode = "encrypted upstream " + *upstream
	}
	fmt.Printf("simgate: serving %d tenant(s) on http://%s (%s)\n", len(tenants), ln.Addr(), mode)
	fmt.Printf("simgate: try  curl -s http://%s/metrics\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nsimgate: shutting down")
	// The drain of simserver and simcoord, with the same bound.
	ctx, cancel := context.WithTimeout(context.Background(), wire.DrainTimeout)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		srv.Close()
	}
}

// buildTenants parses the -tenants spec and constructs each tenant's
// backend: an in-process DirectClient over fresh clustered data in demo
// mode, an EncryptedClient dialing the upstream with the tenant's own
// secret key otherwise.
func buildTenants(spec, upstream string, maxLevel, n, dim, numPivots int) ([]gateway.Tenant, error) {
	var tenants []gateway.Tenant
	for i, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), "=")
		var t gateway.Tenant
		var err error
		switch {
		case upstream == "" && len(parts) == 2:
			t, err = gateway.DemoTenant(parts[0], parts[1], uint64(i+1), n, dim, numPivots, maxLevel)
		case upstream != "" && len(parts) == 3:
			t, err = upstreamTenant(parts[0], parts[1], parts[2], upstream, maxLevel)
		default:
			return nil, fmt.Errorf("tenant %q: want name=apikey (demo) or name=apikey=keyfile (-upstream)", entry)
		}
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", parts[0], err)
		}
		tenants = append(tenants, t)
	}
	return tenants, nil
}

// upstreamTenant dials the encrypted upstream with the tenant's own secret
// key from keyFile.
func upstreamTenant(name, apiKey, keyFile, upstream string, maxLevel int) (gateway.Tenant, error) {
	blob, err := os.ReadFile(keyFile)
	if err != nil {
		return gateway.Tenant{}, err
	}
	key, err := secret.Unmarshal(blob)
	if err != nil {
		return gateway.Tenant{}, err
	}
	client, err := core.DialEncrypted(upstream, key, core.Options{MaxLevel: maxLevel})
	if err != nil {
		return gateway.Tenant{}, err
	}
	return gateway.Tenant{Name: name, Key: apiKey, Backend: client}, nil
}
