package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/flightrec"
	"repro/internal/sim"
)

// modelDigest flattens everything the experiments read out of a world into
// one comparable string. Unlike worldDigest it excludes Eng.Fired(): the
// snapshot ticker legitimately adds engine events, and the guarantee is
// about model outputs.
func modelDigest(w *World) string {
	sum := w.Store.Summarize()
	st := w.Ctrl.Stats()
	return fmt.Sprintf("%+v %+v %.12f %.12f %.12f %d",
		sum, st, w.Ledger.FleetAvailability(), w.Ledger.DownLinkHours(),
		w.Ledger.DegradedLinkHours(), w.ChaosStats().Injected())
}

// TestRecordingDoesNotPerturbRun is the opt-in guarantee: a recorded run
// (taps + snapshot ticker attached) must produce exactly the model outputs
// of an unrecorded one — recording is an observer, never a participant.
func TestRecordingDoesNotPerturbRun(t *testing.T) {
	opts := Options{Seed: 11, BuildNet: SmallHall, Level: core.L3,
		Techs: 2, Robots: true, FaultScale: 30}
	plain, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(30 * sim.Day)

	recorded, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec, err := recorded.StartRecording(&buf, map[string]string{"seed": "11"}, 6*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	recorded.Run(30 * sim.Day)
	if _, err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if d1, d2 := modelDigest(plain), modelDigest(recorded); d1 != d2 {
		t.Errorf("recording perturbed the run:\nplain    %s\nrecorded %s", d1, d2)
	}
}

// TestWorldRecordingReplays is the tentpole acceptance for single-engine
// worlds: replaying the written bytes reproduces the live summary
// fingerprint without re-simulating, and re-recording the same seed yields
// byte-identical files.
func TestWorldRecordingReplays(t *testing.T) {
	record := func() (*flightrec.Summary, []byte) {
		w, err := Build(Options{Seed: 3, BuildNet: SmallHall, Level: core.L3,
			Techs: 2, Robots: true, FaultScale: 30})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rec, err := w.StartRecording(&buf, map[string]string{"seed": "3"}, 6*sim.Hour)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(30 * sim.Day)
		live, err := rec.Close()
		if err != nil {
			t.Fatal(err)
		}
		return live, buf.Bytes()
	}
	live, raw := record()
	res, err := flightrec.Replay(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match() {
		t.Fatalf("replay fingerprint %016x != trailer %016x",
			res.Summary.Fingerprint(), res.Trailer.Fingerprint)
	}
	if res.Summary.Fingerprint() != live.Fingerprint() {
		t.Fatalf("replay fingerprint %016x != live %016x",
			res.Summary.Fingerprint(), live.Fingerprint())
	}
	if res.Summary.Render() != live.Render() {
		t.Error("replayed summary render differs from live render")
	}
	if strings.Contains(live.Render(), " events=0 ") {
		t.Error("recording captured no events")
	}
	_, raw2 := record()
	if !bytes.Equal(raw, raw2) {
		t.Error("same-seed re-record produced different bytes")
	}
}

// TestFleetRecordingReplays covers the sharded path: the per-shard taps
// merged at the epoch barrier must replay to the live report — the F8
// record→replay acceptance — and the recording must be byte-identical at
// any worker count, since barrier order is worker-independent.
func TestFleetRecordingReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet recording differential is not a -short test")
	}
	p := DefaultFleetParams(true)
	run := func(workers int) (*fleet.Report, []byte) {
		f, regions, err := BuildFleet(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		frec, err := startFleetRecording(f, regions, &buf, map[string]string{"seed": fmt.Sprint(p.Seed)})
		if err != nil {
			t.Fatal(err)
		}
		f.Run(sim.Time(p.Days) * sim.Day)
		rep := f.Report()
		if _, err := frec.Close(rep); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	rep1, raw1 := run(1)
	rep2, raw2 := run(2)
	if rep1.Fingerprint() != rep2.Fingerprint() {
		t.Fatalf("worker sweep broke determinism: %016x vs %016x",
			rep1.Fingerprint(), rep2.Fingerprint())
	}
	if !bytes.Equal(raw1, raw2) {
		d, err := flightrec.Diff(bytes.NewReader(raw1), bytes.NewReader(raw2))
		t.Fatalf("workers=1 vs workers=2 recordings are not byte-identical (diff %v, err %v)", d, err)
	}

	res, err := flightrec.Replay(bytes.NewReader(raw1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match() {
		t.Fatalf("fleet replay fingerprint %016x != trailer %016x",
			res.Summary.Fingerprint(), res.Trailer.Fingerprint)
	}
	back, err := ReplayFleetReport(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != rep1.Fingerprint() {
		t.Fatalf("report rebuilt from recording fingerprints %016x, live %016x",
			back.Fingerprint(), rep1.Fingerprint())
	}
	if back.Render() != rep1.Render() {
		t.Error("report rebuilt from recording renders differently from live")
	}
}

// TestR7FromRecordingsMatchesLive is the experiments-harness acceptance:
// running R7 with RecordDir set, then regenerating the table from the
// recordings alone, must render byte-identically.
func TestR7FromRecordingsMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("R7 record/regenerate differential is not a -short test")
	}
	dir := t.TempDir()
	p := RepairParams{Duration: 30 * sim.Day, FaultScale: 30,
		Seeds: []uint64{7}, Quick: true, RecordDir: dir}
	live, err := R7ActuatorChaos(Serial(), p)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "R7-*.fr"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(r7Levels) * len(r7Rates) * len(p.Seeds); len(files) != want {
		t.Fatalf("R7 wrote %d recordings, want %d", len(files), want)
	}
	replayed, err := R7FromRecordings(dir)
	if err != nil {
		t.Fatal(err)
	}
	if live.String() != replayed.String() {
		t.Errorf("table regenerated from recordings differs from live:\nlive:\n%s\nreplayed:\n%s",
			live, replayed)
	}
}

// TestR7FromRecordingsRejectsCorruption: a truncated capture must fail the
// replay fingerprint check, not silently skew the regenerated table.
func TestR7FromRecordingsRejectsTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("depends on the non-short R7 recordings")
	}
	dir := t.TempDir()
	p := RepairParams{Duration: 10 * sim.Day, FaultScale: 30,
		Seeds: []uint64{7}, Quick: true, RecordDir: dir}
	if _, err := R7ActuatorChaos(Serial(), p); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "R7-*.fr"))
	if err != nil || len(files) == 0 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := R7FromRecordings(dir); err == nil {
		t.Fatal("R7FromRecordings accepted a truncated recording")
	}
}
