//! Every goldened experiment's record keeps the key skeleton of its golden
//! `expected/<name>_hd1080.json` (keys, their order and nesting; not values
//! or array lengths), checked on the fast `tiny` scenario so a schema change
//! fails here before the slow hd1080 golden run.

use bench::exp;
use downscaler::Scenario;

/// `fusion-parity`'s static sweep compiles every downscaler size up to 8K
/// whatever the scenario, which is too slow for a test; the golden check
/// guards its schema.
const SKIPPED: &[&str] = &["fusion-parity"];

#[test]
fn tiny_records_have_their_golden_skeletons() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../expected");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(dir).expect("expected/ exists") {
        let path = entry.expect("readable directory entry").path();
        let file = path.file_name().and_then(|f| f.to_str()).expect("UTF-8 file name");
        let Some(stem) = file.strip_suffix("_hd1080.json") else { continue };
        let name = stem.replace('_', "-");
        if SKIPPED.contains(&name.as_str()) {
            continue;
        }
        let e = exp::find(&name).unwrap_or_else(|| panic!("{file} names no experiment"));
        let s = Scenario::tiny();
        let record = e.full_record(&s, (e.run)(&s).unwrap_or_else(|err| panic!("{name}: {err}")));
        let golden = std::fs::read_to_string(&path).expect("readable golden");
        assert_eq!(skeleton(&record.render_json()), skeleton(&golden), "{name}");
        checked.push(name);
    }
    assert!(checked.len() >= 8, "only {checked:?} checked");
}

#[test]
fn skeletons_ignore_values_and_array_lengths() {
    let a = r#"{"a":1,"rows":[{"x":"s","y":[1,2]},{"x":"t","y":[]}],"b":{"c":true}}"#;
    let b = r#"{"a":2.5,"rows":[{"x":"u","y":[3]}],"b":{"c":false}}"#;
    assert_eq!(skeleton(a), skeleton(b));
    assert_eq!(skeleton(a), "{a:_,rows:[{x:_,y:[]}],b:{c:_}}");
    assert_ne!(skeleton(a), skeleton(r#"{"rows":[],"a":1,"b":{"c":true}}"#));
}

/// The key skeleton of compact JSON text: objects keep their keys in order,
/// scalars become `_`, and an array keeps the distinct skeletons of its
/// object elements.
fn skeleton(json: &str) -> String {
    Parser { s: json.as_bytes(), i: 0 }.value()
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn value(&mut self) -> String {
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                while self.next_item(b'}') {
                    let key = self.string();
                    self.i += 1; // ':'
                    fields.push(format!("{key}:{}", self.value()));
                }
                format!("{{{}}}", fields.join(","))
            }
            b'[' => {
                self.i += 1;
                let mut kinds: Vec<String> = Vec::new();
                while self.next_item(b']') {
                    let v = self.value();
                    if v.starts_with('{') && !kinds.contains(&v) {
                        kinds.push(v);
                    }
                }
                format!("[{}]", kinds.join(","))
            }
            b'"' => {
                self.string();
                "_".into()
            }
            _ => {
                while !matches!(self.s[self.i], b',' | b'}' | b']') {
                    self.i += 1;
                }
                "_".into()
            }
        }
    }

    /// Skip a separator; false (past the bracket) at the closing `close`.
    fn next_item(&mut self, close: u8) -> bool {
        if self.s[self.i] == b',' {
            self.i += 1;
        }
        let more = self.s[self.i] != close;
        if !more {
            self.i += 1;
        }
        more
    }

    fn string(&mut self) -> String {
        let start = self.i + 1;
        self.i = start;
        while self.s[self.i] != b'"' {
            self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
        }
        self.i += 1;
        String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned()
    }
}
