package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"siren/internal/analysis"
	"siren/internal/campaign"
	"siren/internal/wire"
	"siren/internal/xxhash"
)

// Every input of the benchmark is a pure function of the seed: the campaign
// capture, the catalogue executables and the query pool. The program under
// test receives only these generated inputs, never the seed.

// traffic is one datagram sequence in send order, with the per-job ground
// truth the lag poller and the output checks compare the system against.
type traffic struct {
	dgrams [][]byte
	jobOf  []int32  // job index of each datagram
	jobs   []string // job id by index, in first-appearance order
	perJob []int    // datagrams offered per job
	last   []int    // position of each job's last datagram
	bytes  int64    // sum of datagram lengths
}

func (t *traffic) add(d []byte, job string, index map[string]int32) {
	j, ok := index[job]
	if !ok {
		j = int32(len(t.jobs))
		index[job] = j
		t.jobs = append(t.jobs, job)
		t.perJob = append(t.perJob, 0)
		t.last = append(t.last, 0)
	}
	t.perJob[j]++
	t.last[j] = len(t.dgrams)
	t.jobOf = append(t.jobOf, j)
	t.dgrams = append(t.dgrams, d)
	t.bytes += int64(len(d))
}

// captureTransport records every datagram the campaign's collector sends.
type captureTransport struct {
	mu     sync.Mutex
	dgrams [][]byte
}

func (c *captureTransport) Send(d []byte) error {
	c.mu.Lock()
	c.dgrams = append(c.dgrams, d) // wire.Encode hands over a fresh slice
	c.mu.Unlock()
	return nil
}

func (c *captureTransport) Close() error { return nil }

// campaignCapture runs the simulated campaign single-threaded (so the
// datagram order is reproducible) and returns what its collector sent,
// with the number of processes the campaign simulated.
func campaignCapture(seed int64, scale float64) ([][]byte, int, error) {
	tr := &captureTransport{}
	res, err := campaign.Run(campaign.Config{Scale: scale, Seed: seed, Workers: 1, Transport: tr})
	if err != nil {
		return nil, 0, fmt.Errorf("campaign capture: %w", err)
	}
	return tr.dgrams, res.ProcessesRun, nil
}

const jobPrefix = "SIREN1|JOBID="

// datagramJob returns the JOBID value of an encoded datagram and the offset
// just past it.
func datagramJob(d []byte) (string, int, error) {
	if !bytes.HasPrefix(d, []byte(jobPrefix)) {
		return "", 0, fmt.Errorf("datagram without %q header", jobPrefix)
	}
	end := bytes.IndexByte(d[len(jobPrefix):], '|')
	if end < 0 {
		return "", 0, fmt.Errorf("datagram with unterminated JOBID")
	}
	end += len(jobPrefix)
	return string(d[len(jobPrefix):end]), end, nil
}

// campaignTraffic is the capture replayed in capture order and tiled until
// want datagrams exist: tile k > 0 repeats the capture with "t<k>" appended
// to every job id, so a short capture still offers a long window of
// realistic traffic (the collector re-hashes every executable at each
// process start, which makes a capture of the full length too slow to
// generate before every run). The last tile is cut at want, mid-job if need
// be: a job's offered count is what was actually sent for it.
func campaignTraffic(capture [][]byte, want int) (*traffic, error) {
	if len(capture) == 0 {
		return nil, fmt.Errorf("empty campaign capture")
	}
	t := &traffic{}
	index := make(map[string]int32)
	for tile := 0; len(t.dgrams) < want; tile++ {
		suffix := ""
		if tile > 0 {
			suffix = "t" + strconv.Itoa(tile)
		}
		for _, d := range capture {
			if len(t.dgrams) == want {
				break
			}
			job, end, err := datagramJob(d)
			if err != nil {
				return nil, err
			}
			if suffix != "" {
				nd := make([]byte, 0, len(d)+len(suffix))
				nd = append(nd, d[:end]...)
				nd = append(nd, suffix...)
				nd = append(nd, d[end:]...)
				d, job = nd, job+suffix
			}
			t.add(d, job, index)
		}
	}
	return t, nil
}

const (
	familySize = 64
	// Catalogue families draw their signatures from the first half of the
	// base64 alphabet and unknown queries from the second, so an unknown
	// can share no 7-gram with any catalogued digest and "no row" is its
	// only correct answer, whatever the seed.
	knownAlphabet   = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdef"
	unknownAlphabet = "ghijklmnopqrstuvwxyz0123456789+/"
)

func randomBase(rng *rand.Rand, alphabet string) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}

// mutateDigest turns a family base signature into a well-formed ssdeep
// digest: members of one family share most 7-grams, as different builds of
// one application do (benchDigest in internal/analysis/bench_test.go).
func mutateDigest(rng *rand.Rand, base []byte, alphabet string) string {
	s1 := append([]byte(nil), base...)
	for m := 0; m < 4; m++ {
		s1[rng.Intn(len(s1))] = alphabet[rng.Intn(len(alphabet))]
	}
	s2 := append([]byte(nil), base[:32]...)
	for m := 0; m < 2; m++ {
		s2[rng.Intn(len(s2))] = alphabet[rng.Intn(len(alphabet))]
	}
	bs := uint32(192) << rng.Intn(3)
	return fmt.Sprintf("%d:%s:%s", bs, s1, s2)
}

func sixDigests(rng *rand.Rand, base []byte, alphabet string) analysis.Digests {
	var d [6]string
	for c := range d {
		d[c] = mutateDigest(rng, base, alphabet)
	}
	return analysis.Digests{Modules: d[0], Compilers: d[1], Objects: d[2], File: d[3], Strings: d[4], Symbols: d[5]}
}

// catalogueExe is one synthetic user executable and its six digests.
type catalogueExe struct {
	family  int
	exe     string
	digests analysis.Digests
}

// catalogue is N executables in families of 64, with the family bases kept
// so the query pool can draw fresh variants.
type catalogue struct {
	exes  []catalogueExe
	bases [][]byte
}

func familyDir(family int) string { return fmt.Sprintf("/appl/lammps/%04d/bin/", family) }

// exeFamily reads the family back from an executable path of an identify
// answer; -1 when the path is not one the generator made.
func exeFamily(exe string) int {
	rest, ok := strings.CutPrefix(exe, "/appl/lammps/")
	if !ok || len(rest) < 4 {
		return -1
	}
	f, err := strconv.Atoi(rest[:4])
	if err != nil {
		return -1
	}
	return f
}

func newCatalogue(seed int64, n int) *catalogue {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	c := &catalogue{exes: make([]catalogueExe, 0, n)}
	seenFile := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		family := i / familySize
		if family == len(c.bases) {
			c.bases = append(c.bases, randomBase(rng, knownAlphabet))
		}
		d := sixDigests(rng, c.bases[family], knownAlphabet)
		// The fingerprint index deduplicates by FILE_H; a repeated one
		// would silently drop an executable from the catalogue.
		for seenFile[d.File] {
			d.File = mutateDigest(rng, c.bases[family], knownAlphabet)
		}
		seenFile[d.File] = true
		c.exes = append(c.exes, catalogueExe{
			family:  family,
			exe:     fmt.Sprintf("%slmp_%d", familyDir(family), i),
			digests: d,
		})
	}
	return c
}

// catalogueJob names the job an executable's process ran in: one job per
// family, so the store holds N/64 jobs of 448 rows.
func catalogueJob(family int) string { return "cat" + strconv.Itoa(family) }

// messages renders executable i as the collector would send it: one
// METADATA record and the six characteristic digests.
func (c *catalogue) messages(i int) []wire.Message {
	e := c.exes[i]
	hdr := wire.Header{
		JobID: catalogueJob(e.family), StepID: "0", PID: 1000 + i,
		Hash: xxhash.Hash128String(e.exe).Hex(), Host: fmt.Sprintf("nid%04d", e.family%64),
		Time: campaign.DefaultStartTime + int64(i), Layer: wire.LayerSelf, Seq: 0, Total: 1,
	}
	mk := func(typ, content string) wire.Message {
		h := hdr
		h.Type = typ
		return wire.Message{Header: h, Content: []byte(content)}
	}
	meta := fmt.Sprintf("EXE=%s\nCATEGORY=user\nPPID=1\nUID=%d\nGID=100\nINODE=%d\nSIZE=%d\nMODE=755\n"+
		"OWNER_UID=%d\nOWNER_GID=100\nATIME=%d\nMTIME=%d\nCTIME=%d\n",
		e.exe, 1000+e.family%12, 100000+i, 1<<20+i, 1000+e.family%12, hdr.Time, hdr.Time-86400, hdr.Time-86400)
	return []wire.Message{
		mk(wire.TypeMetadata, meta),
		mk(wire.TypeFileH, e.digests.File),
		mk(wire.TypeStringsH, e.digests.Strings),
		mk(wire.TypeSymbolsH, e.digests.Symbols),
		mk(wire.TypeObjectsH, e.digests.Objects),
		mk(wire.TypeModulesH, e.digests.Modules),
		mk(wire.TypeCompilersH, e.digests.Compilers),
	}
}

const rowsPerExe = 7

// traffic renders the whole catalogue as a datagram sequence.
func (c *catalogue) traffic() *traffic {
	t := &traffic{}
	index := make(map[string]int32)
	for i := range c.exes {
		for _, m := range c.messages(i) {
			t.add(wire.Encode(m), m.JobID, index)
		}
	}
	return t
}

type queryKind int

const (
	kindExact   queryKind = iota // six digests of a catalogued executable: a repeated execution
	kindVariant                  // fresh mutation of a catalogued family: a new build
	kindUnknown                  // fresh family: no relative in the catalogue
	numKinds
)

func (k queryKind) String() string { return [...]string{"exact", "variant", "unknown"}[k] }

// query is one identify request with its ground truth.
type query struct {
	kind    queryKind
	family  int // the drawn family; -1 for unknown
	digests analysis.Digests
}

const queryPoolSize = 4096

// newQueryPool draws the seeded identify pool: 40% exact, 40% variant and
// 20% unknown (unknownShare false leaves the unknowns out, for the mixed
// workload, and splits the pool evenly between the other two).
func newQueryPool(seed int64, c *catalogue, n int, unknownShare bool) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x1de27f))
	pool := make([]query, n)
	for i := range pool {
		kind := kindExact
		switch r := rng.Intn(10); {
		case unknownShare && r >= 8:
			kind = kindUnknown
		case unknownShare && r >= 4, !unknownShare && r >= 5:
			kind = kindVariant
		}
		switch kind {
		case kindExact:
			e := c.exes[rng.Intn(len(c.exes))]
			pool[i] = query{kind: kind, family: e.family, digests: e.digests}
		case kindVariant:
			f := rng.Intn(len(c.bases))
			pool[i] = query{kind: kind, family: f, digests: sixDigests(rng, c.bases[f], knownAlphabet)}
		case kindUnknown:
			pool[i] = query{kind: kind, family: -1, digests: sixDigests(rng, randomBase(rng, unknownAlphabet), unknownAlphabet)}
		}
	}
	return pool
}
