package spe

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The pipeline ships SPEs and clusters between stages as CSV text files, the
// same interchange the paper uses for its HDFS uploads. Every record begins
// with the observation descriptors (dataset, MJD, sky position, beam); the
// remainder is the payload. Header lines start with '#' and are stripped in
// stage 1 of the D-RAPID driver.

// DataHeader is the header line written at the top of SPE data files.
const DataHeader = "# dataset,mjd,ra,dec,beam,dm,snr,time,sample,downfact"

// ClusterHeader is the header line written at the top of cluster files.
const ClusterHeader = "# dataset,mjd,ra,dec,beam,id,n,dmmin,dmmax,tmin,tmax,snrmax,rank"

// IsHeader reports whether a CSV line is a header or blank line that the
// loader should skip.
func IsHeader(line string) bool {
	t := strings.TrimSpace(line)
	return t == "" || strings.HasPrefix(t, "#")
}

// FormatDataLine renders one SPE as a data-file CSV record.
func FormatDataLine(k Key, e SPE) string {
	var buf [128]byte
	return string(AppendDataLine(buf[:0], k, e))
}

// FormatClusterLine renders one cluster as a cluster-file CSV record.
func FormatClusterLine(c *Cluster) string {
	var buf [128]byte
	return string(AppendClusterLine(buf[:0], c))
}

// AppendDataLine appends one SPE's data-file CSV record (no newline) to dst:
// dataset,mjd,ra,dec,beam,dm,snr,time,sample,downfact with the fixed
// precisions %.4f ×3, %.4f, %.3f, %.6f — byte for byte what fmt's verbs
// print, NaN and ±Inf included, since fmt formats floats through the same
// strconv routine.
func AppendDataLine(dst []byte, k Key, e SPE) []byte {
	return appendDataFields(appendKeyFields(dst, k), e)
}

// FormatDataLines appends to dst one data-file record per event of the
// observation keyed k, each exactly as AppendDataLine formats it. The key's
// five descriptors are formatted once, and the records are substrings of
// one string, so an observation costs a few allocations, not one per event.
func FormatDataLines(dst []string, k Key, events []SPE) []string {
	if len(events) == 0 {
		return dst
	}
	head := appendKeyFields(nil, k)
	buf := make([]byte, 0, len(events)*(len(head)+48))
	ends := make([]int, len(events))
	for i, e := range events {
		buf = appendDataFields(append(buf, head...), e)
		ends[i] = len(buf)
	}
	s, start := string(buf), 0
	for _, end := range ends {
		dst = append(dst, s[start:end])
		start = end
	}
	return dst
}

// appendDataFields appends the five comma-led payload fields of e.
func appendDataFields(dst []byte, e SPE) []byte {
	dst = appendFloat(dst, e.DM, 4)
	dst = appendFloat(dst, e.SNR, 3)
	dst = appendFloat(dst, e.Time, 6)
	dst = strconv.AppendInt(append(dst, ','), e.Sample, 10)
	return strconv.AppendInt(append(dst, ','), int64(e.Downfact), 10)
}

// AppendClusterLine appends one cluster's cluster-file CSV record (no
// newline) to dst, with the precisions AppendDataLine documents.
func AppendClusterLine(dst []byte, c *Cluster) []byte {
	dst = appendKeyFields(dst, c.Key)
	dst = strconv.AppendInt(append(dst, ','), int64(c.ID), 10)
	dst = strconv.AppendInt(append(dst, ','), int64(c.N), 10)
	dst = appendFloat(dst, c.DMMin, 4)
	dst = appendFloat(dst, c.DMMax, 4)
	dst = appendFloat(dst, c.TMin, 6)
	dst = appendFloat(dst, c.TMax, 6)
	dst = appendFloat(dst, c.SNRMax, 3)
	return strconv.AppendInt(append(dst, ','), int64(c.Rank), 10)
}

// Quantize returns e as a data-file record carries it: DM, SNR and Time
// rounded to the precisions AppendDataLine prints and parsed back, so a
// typed event holds exactly the values ParseDataLine would read from its
// line. Sample and Downfact are integers and cross the text unchanged.
func Quantize(e SPE) SPE {
	e.DM = roundTrip(e.DM, 4)
	e.SNR = roundTrip(e.SNR, 3)
	e.Time = roundTrip(e.Time, 6)
	return e
}

// QuantizeCluster returns c as a cluster-file record carries it: the
// bounds and SNRMax rounded like Quantize's fields. Key is kept as is; a
// parsed cluster payload leaves it zero, and nothing downstream of the
// per-key search reads it.
func QuantizeCluster(c Cluster) Cluster {
	c.DMMin, c.DMMax = roundTrip(c.DMMin, 4), roundTrip(c.DMMax, 4)
	c.TMin, c.TMax = roundTrip(c.TMin, 6), roundTrip(c.TMax, 6)
	c.SNRMax = roundTrip(c.SNRMax, 3)
	return c
}

// roundTrip is ParseFloat∘AppendFloat at %.<prec>f, formatted into a stack
// buffer. The parse cannot fail: appendFixed writes a finite value's exact
// decimal digits and NaN/±Inf as the spellings ParseFloat accepts.
func roundTrip(v float64, prec int) float64 {
	var buf [32]byte
	q, _ := strconv.ParseFloat(string(appendFixed(buf[:0], v, prec)), 64)
	return q
}

// appendKeyFields appends the five observation descriptors.
func appendKeyFields(dst []byte, k Key) []byte {
	dst = append(dst, k.Dataset...)
	dst = appendFloat(dst, k.MJD, 4)
	dst = appendFloat(dst, k.RA, 4)
	dst = appendFloat(dst, k.Dec, 4)
	return strconv.AppendInt(append(dst, ','), int64(k.Beam), 10)
}

// appendFloat appends a comma and v as fmt's %.<prec>f prints it.
func appendFloat(dst []byte, v float64, prec int) []byte {
	return appendFixed(append(dst, ','), v, prec)
}

// decades[i] is 10^(i-19).
var decades = func() (d [39]float64) {
	for i := range d {
		d[i] = math.Pow10(i - 19)
	}
	return d
}()

// appendFixed appends exactly what strconv.AppendFloat(dst, v, 'f', prec,
// 64) appends. strconv prints 'f' at a fixed precision on its
// multiprecision path; when v's %.<prec>f has 2–17 significant digits,
// its Ryū fixed-digit 'e' path rounds the same digits correctly at half
// the cost, and appendFixed re-lays them out as 'f'. The digit count
// follows from an estimate of v's decimal exponent, which the exponent
// of the 'e' form then checks: when they differ (the estimate was off, or
// rounding carried into a new decade) the digits were not rounded at the
// 10^-prec place, and strconv's 'f' formats v instead. Zero, NaN, ±Inf
// and values outside the digit range take that path too.
func appendFixed(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if a == 0 || math.IsInf(a, 0) || math.IsNaN(a) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	// For a's binary exponent e2, floor(e2·log10 2) (Ryū's 78913/2^18) is
	// a's decimal exponent or one less; a compare settles which, and the
	// check below catches whatever the compare gets wrong.
	exp := (int(math.Float64bits(a)>>52) - 1023) * 78913 >> 18
	if exp >= -19 && exp < 19 && a >= decades[exp+20] {
		exp++
	}
	digits := exp + 1 + prec
	if digits < 2 || digits > 17 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	// e is "d.ddd…e±XX": the leading digit, the point, digits-1 digits,
	// then the exponent's sign at 2+digits and its decimal digits.
	var buf [32]byte
	e := strconv.AppendFloat(buf[:0], a, 'e', digits-1, 64)
	x := 0
	for _, c := range e[3+digits:] {
		x = 10*x + int(c-'0')
	}
	if e[2+digits] == '-' {
		x = -x
	}
	if x != exp {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if v < 0 {
		dst = append(dst, '-')
	}
	if exp < 0 { // 0.000ddd: prec = digits - 1 - exp > 1
		dst = append(dst, '0', '.')
		for i := -1; i > exp; i-- {
			dst = append(dst, '0')
		}
		return append(append(dst, e[0]), e[2:1+digits]...)
	}
	dst = append(append(dst, e[0]), e[2:2+exp]...)
	if prec > 0 {
		dst = append(append(dst, '.'), e[2+exp:1+digits]...)
	}
	return dst
}

// CutKeyed cuts a CSV record after its fifth field: head is the five
// observation descriptors as written, payload the rest. Both share the
// line's storage; ok is false when the record has fewer than six fields.
func CutKeyed(line string) (head, payload string, ok bool) {
	end := 0
	for i := 0; i < 5; i++ {
		j := strings.IndexByte(line[end:], ',')
		if j < 0 {
			return "", "", false
		}
		end += j + 1
	}
	return line[:end-1], line[end:], true
}

// CanonicalKey turns a record head (see CutKeyed) into the colon-joined
// KVP-RDD key. A comma-free head is its own key.
func CanonicalKey(head string) string {
	return strings.ReplaceAll(head, ",", ":")
}

// SplitKeyed splits a CSV record into its observation key (the first five
// fields, re-joined in canonical colon form) and the remaining payload. This
// is the "Map to KVPRDD" operation of Figure 3: the descriptors become the
// RDD key and the rest of the line the value.
func SplitKeyed(line string) (key, payload string, err error) {
	head, payload, ok := CutKeyed(line)
	if !ok {
		return "", "", fmt.Errorf("spe: record has fewer than 6 fields: %q", line)
	}
	return CanonicalKey(head), payload, nil
}

// cutFields cuts s at its commas into exactly len(f) fields, reporting
// false when s has another field count. The fields share s's storage.
func cutFields(s string, f []string) bool {
	last := len(f) - 1
	for i := 0; i < last; i++ {
		j := strings.IndexByte(s, ',')
		if j < 0 {
			return false
		}
		f[i], s = s[:j], s[j+1:]
	}
	if strings.IndexByte(s, ',') >= 0 {
		return false
	}
	f[last] = s
	return true
}

// numFields is the field count strings.Split(s, ",") would return.
func numFields(s string) int { return strings.Count(s, ",") + 1 }

// ParseDataLine parses a data-file CSV record into its key and event.
func ParseDataLine(line string) (Key, SPE, error) {
	head, payload, ok := CutKeyed(line)
	if !ok || numFields(payload) != 5 {
		return Key{}, SPE{}, fmt.Errorf("spe: data record needs 10 fields, got %d: %q", numFields(line), line)
	}
	k, err := parseKeyFields(head)
	if err != nil {
		return Key{}, SPE{}, err
	}
	e, err := ParseDataPayload(payload)
	if err != nil {
		return Key{}, SPE{}, err
	}
	return k, e, nil
}

// ParseDataPayload parses the value half of a keyed data record
// ("dm,snr,time,sample,downfact"). It allocates only to report an error.
func ParseDataPayload(payload string) (SPE, error) {
	var f [5]string
	if !cutFields(payload, f[:]) {
		return SPE{}, fmt.Errorf("spe: data payload needs 5 fields, got %d: %q", numFields(payload), payload)
	}
	var (
		e   SPE
		err error
	)
	if e.DM, err = strconv.ParseFloat(f[0], 64); err != nil {
		return SPE{}, badDataPayload(payload, err)
	}
	if e.SNR, err = strconv.ParseFloat(f[1], 64); err != nil {
		return SPE{}, badDataPayload(payload, err)
	}
	if e.Time, err = strconv.ParseFloat(f[2], 64); err != nil {
		return SPE{}, badDataPayload(payload, err)
	}
	if e.Sample, err = strconv.ParseInt(f[3], 10, 64); err != nil {
		return SPE{}, badDataPayload(payload, err)
	}
	if e.Downfact, err = strconv.Atoi(f[4]); err != nil {
		return SPE{}, badDataPayload(payload, err)
	}
	return e, nil
}

func badDataPayload(payload string, err error) error {
	return fmt.Errorf("spe: bad data payload %q: %w", payload, err)
}

// ParseClusterLine parses a cluster-file CSV record.
func ParseClusterLine(line string) (*Cluster, error) {
	head, payload, ok := CutKeyed(line)
	if !ok || numFields(payload) != 8 {
		return nil, fmt.Errorf("spe: cluster record needs 13 fields, got %d: %q", numFields(line), line)
	}
	k, err := parseKeyFields(head)
	if err != nil {
		return nil, err
	}
	c, err := ParseClusterPayload(payload)
	if err != nil {
		return nil, err
	}
	c.Key = k
	return &c, nil
}

// ParseClusterPayload parses the value half of a keyed cluster record
// ("id,n,dmmin,dmmax,tmin,tmax,snrmax,rank"); Key is left zero. It
// allocates only to report an error.
func ParseClusterPayload(payload string) (Cluster, error) {
	var f [8]string
	if !cutFields(payload, f[:]) {
		return Cluster{}, fmt.Errorf("spe: cluster payload needs 8 fields, got %d: %q", numFields(payload), payload)
	}
	var c Cluster
	var err error
	if c.ID, err = strconv.Atoi(f[0]); err != nil {
		return Cluster{}, fmt.Errorf("spe: bad cluster id: %w", err)
	}
	if c.N, err = strconv.Atoi(f[1]); err != nil {
		return Cluster{}, fmt.Errorf("spe: bad cluster n: %w", err)
	}
	nums := [5]*float64{&c.DMMin, &c.DMMax, &c.TMin, &c.TMax, &c.SNRMax}
	for i, p := range nums {
		if *p, err = strconv.ParseFloat(f[2+i], 64); err != nil {
			return Cluster{}, fmt.Errorf("spe: bad cluster field %d: %w", 2+i, err)
		}
	}
	if c.Rank, err = strconv.Atoi(f[7]); err != nil {
		return Cluster{}, fmt.Errorf("spe: bad cluster rank: %w", err)
	}
	return c, nil
}

// parseKeyFields parses a record head (see CutKeyed) into its Key; Dataset
// shares the head's storage.
func parseKeyFields(head string) (Key, error) {
	var f [5]string
	cutFields(head, f[:])
	var k Key
	var err error
	k.Dataset = f[0]
	if k.MJD, err = strconv.ParseFloat(f[1], 64); err != nil {
		return Key{}, fmt.Errorf("spe: bad mjd: %w", err)
	}
	if k.RA, err = strconv.ParseFloat(f[2], 64); err != nil {
		return Key{}, fmt.Errorf("spe: bad ra: %w", err)
	}
	if k.Dec, err = strconv.ParseFloat(f[3], 64); err != nil {
		return Key{}, fmt.Errorf("spe: bad dec: %w", err)
	}
	if k.Beam, err = strconv.Atoi(f[4]); err != nil {
		return Key{}, fmt.Errorf("spe: bad beam: %w", err)
	}
	return k, nil
}
