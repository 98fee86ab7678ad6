package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"github.com/dydroid/dydroid/internal/profile"
)

// runProfile implements the profile subcommand — the reader side of the
// fleet's continuous-profiling ring:
//
//	apkinspect profile list -url http://daemon:8437
//	apkinspect profile top [-n 10] -url URL <window-id[@node]>
//	apkinspect profile top [-n 10] window.json
//	apkinspect profile diff [-n 10] -url URL <old-id[@node]> <new-id[@node]>
//	apkinspect profile diff [-n 10] old.json new.json
//
// list renders the window index (a worker's own ring, or a
// coordinator's federated view across every member). top renders one
// window's top-functions table; diff renders the flat self-time
// regression between two windows — "@node" pins a window to a member
// when fetching through a coordinator, so the two sides of a diff can
// come from different nodes. A window JSON file (a saved
// /v1/profiles/{id} body) works in place of a URL fetch.
func runProfile(w io.Writer, args []string) error {
	const usage = "usage: apkinspect profile list -url URL | profile top [-n N] (-url URL <id[@node]> | <file.json>) | profile diff [-n N] (-url URL <old> <new> | <old.json> <new.json>)"
	if len(args) < 1 {
		return fmt.Errorf("%s", usage)
	}
	verb := args[0]
	fs := flag.NewFlagSet("profile "+verb, flag.ContinueOnError)
	baseURL := fs.String("url", "", "daemon or coordinator base URL")
	topN := fs.Int("n", 10, "rows to render")
	asJSON := fs.Bool("json", false, "print raw JSON instead of tables")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	switch verb {
	case "list":
		if *baseURL == "" || fs.NArg() != 0 {
			return fmt.Errorf("%s", usage)
		}
		metas, raw, err := fetchProfileIndex(*baseURL)
		if err != nil {
			return err
		}
		if *asJSON {
			_, err := w.Write(append(raw, '\n'))
			return err
		}
		profile.RenderIndex(w, metas)
		return nil

	case "top":
		if fs.NArg() != 1 {
			return fmt.Errorf("%s", usage)
		}
		win, err := resolveWindow(*baseURL, fs.Arg(0))
		if err != nil {
			return err
		}
		if *asJSON {
			return json.NewEncoder(w).Encode(win)
		}
		profile.RenderTop(w, win, *topN)
		return nil

	case "diff":
		if fs.NArg() != 2 {
			return fmt.Errorf("%s", usage)
		}
		oldW, err := resolveWindow(*baseURL, fs.Arg(0))
		if err != nil {
			return err
		}
		newW, err := resolveWindow(*baseURL, fs.Arg(1))
		if err != nil {
			return err
		}
		profile.RenderDiff(w, oldW, newW, *topN)
		return nil
	}
	return fmt.Errorf("unknown profile verb %q\n%s", verb, usage)
}

// fetchProfileIndex pulls a /v1/profiles index. Workers answer a bare
// window array; coordinators answer the federated envelope with
// node-tagged rows — both decode to the same table.
func fetchProfileIndex(base string) ([]profile.Meta, []byte, error) {
	body, _, err := httpGet(base, "/v1/profiles")
	if err != nil {
		return nil, nil, err
	}
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "[") {
		var metas []profile.Meta
		if err := json.Unmarshal(body, &metas); err != nil {
			return nil, nil, fmt.Errorf("decode profile index: %w", err)
		}
		return metas, body, nil
	}
	var federated struct {
		Missing []string       `json:"missing"`
		Windows []profile.Meta `json:"windows"`
	}
	if err := json.Unmarshal(body, &federated); err != nil {
		return nil, nil, fmt.Errorf("decode federated profile index: %w", err)
	}
	if len(federated.Missing) > 0 {
		fmt.Fprintf(os.Stderr, "apkinspect: warning: %d node(s) unreachable: %s\n",
			len(federated.Missing), strings.Join(federated.Missing, ", "))
	}
	return federated.Windows, body, nil
}

// resolveWindow loads one window: with a base URL the argument is a
// window ID, optionally "@node"-pinned to a federation member;
// without one it is a window JSON file.
func resolveWindow(base, arg string) (*profile.Window, error) {
	if base == "" {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		win := new(profile.Window)
		if err := json.Unmarshal(data, win); err != nil {
			return nil, fmt.Errorf("%s: decode window: %w", arg, err)
		}
		return win, nil
	}
	id, node, _ := strings.Cut(arg, "@")
	path := "/v1/profiles/" + url.PathEscape(id)
	if node != "" {
		path += "?node=" + url.QueryEscape(node)
	}
	body, _, err := httpGet(base, path)
	if err != nil {
		return nil, err
	}
	win := new(profile.Window)
	if err := json.Unmarshal(body, win); err != nil {
		return nil, fmt.Errorf("decode window %s: %w", arg, err)
	}
	return win, nil
}

func normalizeBase(base string) string {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// httpGet GETs path from a daemon or coordinator base URL ("host:port"
// or a full URL) and returns a 200 answer's body, read up to 32 MiB, and
// its header.
func httpGet(base, path string) ([]byte, http.Header, error) {
	target := normalizeBase(base) + path
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(target)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("GET %s: status %d: %s", target, resp.StatusCode, body)
	}
	return body, resp.Header, nil
}
