package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/insitu/cods/internal/cluster"
)

func TestWriteReadRoundTrip(t *testing.T) {
	in := []cluster.Flow{
		{Phase: "couple:2:0", Src: 0, Dst: 3, Bytes: 1024},
		{Phase: "halo:1:0", Src: 2, Dst: 2, Bytes: 64},
		{Phase: "", Src: 1, Dst: 0, Bytes: 0},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d flows, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("flow %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestWriteEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty round trip = %v, %v", out, err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"phase":"p","src":0,"dst":1,"bytes":-5}` + "\n")); err == nil {
		t.Fatal("negative bytes accepted")
	}
}

// TestReadErrorLineNumber: the reported line must be the actual input
// line, even when earlier lines were blank or decoding fails mid-stream
// (the old implementation counted decoded flows, miscounting both).
func TestReadErrorLineNumber(t *testing.T) {
	in := `{"phase":"a","src":0,"dst":1,"bytes":1}

{"phase":"b","src":0,"dst":1,"bytes":2}
not json
`
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("err = %v, want line 4", err)
	}
	_, err = Read(strings.NewReader(`{"bytes":-1}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("err = %v, want line 1", err)
	}
}

// TestMediumClassRoundTrip: the medium/class labels survive the trip, and
// traces written before the fields existed read cleanly as unlabeled.
func TestMediumClassRoundTrip(t *testing.T) {
	in := []cluster.Flow{
		{Phase: "couple:2:0", Src: 0, Dst: 3, Bytes: 1024, Medium: "network", Class: "inter-app"},
		{Phase: "halo:1:0", Src: 2, Dst: 2, Bytes: 64, Medium: "shm", Class: "intra-app"},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"medium":""`) {
		t.Fatal("empty medium not omitted")
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("flow %d: %+v != %+v", i, out[i], in[i])
		}
	}
	// Old format: no medium/class keys at all.
	legacy := `{"phase":"p","src":1,"dst":2,"bytes":9}` + "\n"
	out, err = Read(strings.NewReader(legacy))
	if err != nil || len(out) != 1 || out[0].Medium != "" || out[0].Class != "" {
		t.Fatalf("legacy read = %+v, %v", out, err)
	}
}
