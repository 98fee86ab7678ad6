package profile

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// WriteWindow answers a GET for one captured window, the same on a
// worker and on the coordinator: the full JSON form by default (summary
// plus base64 pprof bytes), or with ?format=pprof the raw pprof protobuf
// as a download directly loadable by `go tool pprof` — a 404 when the
// capture produced no bytes.
func WriteWindow(w http.ResponseWriter, r *http.Request, win *Window) {
	if r.URL.Query().Get("format") != "pprof" {
		writeJSON(w, http.StatusOK, win)
		return
	}
	if len(win.Pprof) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "window has no pprof bytes"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", win.ID+".pb.gz"))
	w.Write(win.Pprof)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
