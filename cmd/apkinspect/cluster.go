package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"github.com/dydroid/dydroid/internal/cluster"
)

// runCluster implements the cluster subcommand — today a single verb:
//
//	apkinspect cluster status [-json] http://coordinator:8437
//
// It fetches the coordinator's /v1/cluster/status and renders the
// per-node table (health, ring ownership share, queue gauge, snapshot
// version), or the raw JSON with -json.
func runCluster(w io.Writer, args []string) error {
	if len(args) < 1 || args[0] != "status" {
		return fmt.Errorf("usage: apkinspect cluster status [-json] <coordinator-url>")
	}
	fs := flag.NewFlagSet("cluster status", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw status JSON instead of the table")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: apkinspect cluster status [-json] <coordinator-url>")
	}
	body, _, err := httpGet(fs.Arg(0), "/v1/cluster/status")
	if err != nil {
		return err
	}
	if *asJSON {
		_, err := w.Write(append(body, '\n'))
		return err
	}
	var st cluster.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("decode cluster status: %w", err)
	}
	cluster.RenderStatus(w, st)
	return nil
}
