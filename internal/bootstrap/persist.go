package bootstrap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sapphire/internal/bins"
	"sapphire/internal/rdf"
	"sapphire/internal/suffixtree"
)

// The paper's initialization "happens only once for each endpoint" (17
// hours for DBpedia), which only makes sense if the cache outlives the
// server process. Save/Load serialize the cached data — predicates,
// literals, and which strings are tree-resident — as JSON; the suffix
// tree and bins are rebuilt on load (construction is linear and fast
// compared to re-crawling the endpoint).
//
// A cache file that spent 17 hours being earned deserves better than
// "json: unexpected end of input" after a crashed save or a disk
// hiccup: Save frames the JSON with a header carrying its length and
// CRC32C, Load verifies both before trusting a byte (and still accepts
// the headerless v1 files earlier builds wrote), and SaveFile writes
// through a temp file with fsync and an atomic rename so an interrupted
// save can never destroy the previous good cache.

// cacheFile is the on-disk representation.
type cacheFile struct {
	Version    int         `json:"version"`
	Endpoint   string      `json:"endpoint"`
	Predicates []savedTerm `json:"predicates"`
	Literals   []savedLit  `json:"literals"`
	Stats      Stats       `json:"stats"`
}

type savedTerm struct {
	IRI string `json:"iri"`
}

type savedLit struct {
	Value  string `json:"value"`
	Lang   string `json:"lang,omitempty"`
	Dtype  string `json:"datatype,omitempty"`
	InTree bool   `json:"inTree,omitempty"`
}

const cacheFileVersion = 1

// cacheHeaderFmt is the v2 envelope: a comment-style first line naming
// the format and carrying the body's CRC32C and byte length. Legacy v1
// files start directly with '{'.
const cacheHeaderFmt = "#sapphire-cache v2 crc32c=%08x bytes=%d\n"

var cacheCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the cache to w in the checksummed v2 format.
func (c *Cache) Save(w io.Writer) error {
	var body bytes.Buffer
	if err := c.saveJSON(&body); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, cacheHeaderFmt,
		crc32.Checksum(body.Bytes(), cacheCastagnoli), body.Len()); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// SaveFile writes the cache to path atomically: temp file in the same
// directory, fsync, rename over the target, fsync the directory. A
// crash mid-save leaves either the old complete file or the new one,
// never a torn hybrid — and a torn temp file left behind never shadows
// the real cache.
func (c *Cache) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// saveJSON writes the raw JSON body (the v1 payload).
func (c *Cache) saveJSON(w io.Writer) error {
	cf := cacheFile{
		Version:  cacheFileVersion,
		Endpoint: c.Endpoint,
		Stats:    c.Stats,
	}
	for _, p := range c.Predicates {
		cf.Predicates = append(cf.Predicates, savedTerm{IRI: p.Value})
	}
	// In-tree literals go first, in tree order: Load appends them to the
	// tree in file order, so the reloaded tree indexes its strings in the
	// same order and completion ranks ties the same way.
	var residual []string
	for lex := range c.literalTerm {
		if !c.inTree[lex] {
			residual = append(residual, lex)
		}
	}
	sort.Strings(residual)
	lexes := append(append([]string(nil), c.treeLiterals...), residual...)
	for _, lex := range lexes {
		t := c.literalTerm[lex]
		cf.Literals = append(cf.Literals, savedLit{
			Value:  t.Value,
			Lang:   t.Lang,
			Dtype:  t.Datatype,
			InTree: c.inTree[lex],
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(cf)
}

// Load reads a cache previously written by Save and rebuilds the
// indexes. v2 files are accepted only if the body matches the header's
// length and CRC32C — a truncated or bit-flipped cache is an error, not
// a silently smaller lexicon. Headerless v1 files load unverified for
// compatibility.
func Load(r io.Reader) (*Cache, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: loading cache: %w", err)
	}
	var body io.Reader = br
	if first[0] == '#' {
		header, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("bootstrap: cache header: %w", err)
		}
		var wantCRC uint32
		var wantLen int
		if _, err := fmt.Sscanf(header, "#sapphire-cache v2 crc32c=%x bytes=%d", &wantCRC, &wantLen); err != nil {
			return nil, fmt.Errorf("bootstrap: unrecognized cache header %q", header)
		}
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("bootstrap: loading cache: %w", err)
		}
		if len(data) != wantLen {
			return nil, fmt.Errorf("bootstrap: cache body is %d bytes, header says %d (truncated?)", len(data), wantLen)
		}
		if got := crc32.Checksum(data, cacheCastagnoli); got != wantCRC {
			return nil, fmt.Errorf("bootstrap: cache checksum mismatch (got %08x, header says %08x)", got, wantCRC)
		}
		body = bytes.NewReader(data)
	}
	var cf cacheFile
	if err := json.NewDecoder(body).Decode(&cf); err != nil {
		return nil, fmt.Errorf("bootstrap: loading cache: %w", err)
	}
	if cf.Version != cacheFileVersion {
		return nil, fmt.Errorf("bootstrap: unsupported cache version %d", cf.Version)
	}
	c := &Cache{
		Endpoint:      cf.Endpoint,
		Stats:         cf.Stats,
		displayToPred: make(map[string][]rdf.Term),
		literalTerm:   make(map[string]rdf.Term),
		inTree:        make(map[string]bool),
	}
	var treeStrings []string
	for _, st := range cf.Predicates {
		p := rdf.NewIRI(st.IRI)
		c.Predicates = append(c.Predicates, p)
		d := DisplayName(p)
		if len(c.displayToPred[d]) == 0 {
			treeStrings = append(treeStrings, d)
		}
		c.displayToPred[d] = append(c.displayToPred[d], p)
		c.inTree[d] = true
	}
	var residual []string
	for _, sl := range cf.Literals {
		t := rdf.Term{Kind: rdf.KindLiteral, Value: sl.Value, Lang: sl.Lang, Datatype: sl.Dtype}
		c.literalTerm[sl.Value] = t
		if sl.InTree {
			c.inTree[sl.Value] = true
			treeStrings = append(treeStrings, sl.Value)
		} else {
			residual = append(residual, sl.Value)
		}
	}
	c.Tree = suffixtree.New(treeStrings)
	c.treeLiterals = treeLiteralsOf(treeStrings, c.literalTerm)
	sort.Strings(residual)
	c.Bins = bins.New(residual)
	c.Stats.TreeNodes = c.Tree.NodeCount()
	c.Stats.TreeBytes = c.Tree.ApproxBytes()
	c.Stats.ResidualCount = c.Bins.Len()
	c.Stats.BinCount = c.Bins.BinCount()
	return c, nil
}
