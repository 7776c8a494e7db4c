package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
)

// Fingerprint returns a stable content address for the scenario: a
// collision-resistant digest of its canonical JSON encoding, prefixed
// with the schema version. It is the cache key of the analysis service
// and a public contract:
//
//   - Two scenarios that decode equal — regardless of JSON key order,
//     whitespace or indentation in the source document — share one
//     fingerprint, because the digest is taken over the canonical
//     re-encoding (struct field order, sorted map keys), not the input
//     bytes.
//   - Any semantic change (a task's program or bounds, a cache
//     geometry, the sharing mode or its payload, sim or explore
//     budgets, the scenario name) changes the fingerprint.
//   - The "specN-" prefix ties the key to the schema version, so a
//     cache can never serve an entry recorded under a different schema.
//
// Analysis is deterministic, so equal fingerprints mean equal reports;
// the fingerprint may therefore key result caches that survive process
// restarts. Only valid scenarios have fingerprints: validation failures
// are returned rather than hashed around.
//
//paralint:canonical THE canonical scenario encoding: sha256 over json.Marshal of fixed-tag spec structs; keycover audits its field coverage
func (s *Scenario) Fingerprint() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("spec: fingerprint: %w", err)
	}
	sum := sha256.Sum256(data)
	return fingerprintOf(sum[:]), nil
}

// nullTasks is how the canonical encoding renders a nil Tasks field.
// Only the schema version and the escaped name precede it, and neither
// can contain it, so its first occurrence is the field.
var nullTasks = []byte(`"tasks":null`)

// fingerprintWithTasks returns Fingerprint() of the already validated
// scenario s, given tasks = json.Marshal(s.Tasks): it encodes s without
// its tasks and hashes that encoding with tasks spliced in at the tasks
// field, which is byte for byte the encoding Fingerprint hashes.
//
//paralint:canonical the canonical scenario encoding with a cached tasks array spliced in; byte identity with Fingerprint pinned by FuzzSweepDecode and the sweep golden
func (s *Scenario) fingerprintWithTasks(tasks []byte) (string, error) {
	rest := *s
	rest.Tasks = nil
	data, err := json.Marshal(&rest)
	if err != nil {
		return "", fmt.Errorf("spec: fingerprint: %w", err)
	}
	i := bytes.Index(data, nullTasks)
	if i < 0 {
		return "", fmt.Errorf("spec: fingerprint: no tasks field in the scenario encoding")
	}
	at := i + len(`"tasks":`)
	h := sha256.New()
	h.Write(data[:at])
	h.Write(tasks)
	h.Write(data[i+len(nullTasks):])
	return fingerprintOf(h.Sum(nil)), nil
}

// fingerprintOf renders a scenario digest as its fingerprint.
func fingerprintOf(sum []byte) string {
	return "spec" + strconv.Itoa(Version) + "-" + hex.EncodeToString(sum)
}
