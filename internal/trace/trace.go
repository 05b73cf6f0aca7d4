// Package trace serializes the transfer flows the framework records so
// that runs can be archived, diffed and analyzed offline (or fed to
// external plotting). The format is JSON Lines: one flow object per line,
// self-describing and stream-appendable.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"github.com/insitu/cods/internal/cluster"
)

// Record is the serialized form of one transfer flow. Medium and Class
// were added after the first trace format; they are omitted when empty so
// old readers ignore nothing and old traces (which lack them) still Read
// cleanly into flows with empty labels.
type Record struct {
	Phase  string `json:"phase"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Bytes  int64  `json:"bytes"`
	Medium string `json:"medium,omitempty"` // "shm" or "network"
	Class  string `json:"class,omitempty"`  // "inter-app", "intra-app" or "control"
}

// Write streams flows to w as JSON Lines.
func Write(w io.Writer, flows []cluster.Flow) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, f := range flows {
		if err := enc.Encode(Record{
			Phase:  f.Phase,
			Src:    int(f.Src),
			Dst:    int(f.Dst),
			Bytes:  f.Bytes,
			Medium: f.Medium,
			Class:  f.Class,
		}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return bw.Flush()
}

// Read loads a JSON Lines flow trace. Malformed input is reported with the
// 1-based line number of the offending input line (blank lines count but
// are skipped), not the number of flows decoded so far.
func Read(r io.Reader) ([]cluster.Flow, error) {
	br := bufio.NewReader(r)
	var out []cluster.Flow
	line := 0
	for {
		text, rerr := br.ReadString('\n')
		if text != "" {
			line++
			if trimmed := strings.TrimSpace(text); trimmed != "" {
				var rec Record
				if err := json.Unmarshal([]byte(trimmed), &rec); err != nil {
					return nil, fmt.Errorf("trace: line %d: %w", line, err)
				}
				if rec.Bytes < 0 {
					return nil, fmt.Errorf("trace: line %d: negative byte count", line)
				}
				out = append(out, cluster.Flow{
					Phase:  rec.Phase,
					Src:    cluster.NodeID(rec.Src),
					Dst:    cluster.NodeID(rec.Dst),
					Bytes:  rec.Bytes,
					Medium: rec.Medium,
					Class:  rec.Class,
				})
			}
		}
		if rerr == io.EOF {
			return out, nil
		}
		if rerr != nil {
			return nil, fmt.Errorf("trace: %w", rerr)
		}
	}
}
