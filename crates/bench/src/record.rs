//! The one representation every experiment reports in.
//!
//! An experiment's run function returns a [`Record`]; `reproduce` derives
//! everything else from it: the text on stdout ([`Record::render_text`]), the
//! `--json` file ([`Record::render_json`]) and the exit status
//! ([`Record::failures`]). The workspace deliberately carries no serde
//! dependency, and the records are small ordered trees, so a tiny value type
//! with an escaping writer is enough.

/// A JSON-shaped value whose objects keep insertion order (the JSON key
/// order is the contract the goldens check). Build objects with [`record!`](crate::record!).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A plain flag, e.g. whether a row ran with the pool on.
    Bool(bool),
    /// A checked claim: renders as a JSON bool, and a `false` anywhere in a
    /// record makes `reproduce` exit non-zero.
    Verdict(bool),
    /// An integer (kept apart from [`Record::Num`] so counts render exactly).
    Int(i64),
    /// A float; non-finite values render as `null` since JSON has no NaN.
    Num(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Record>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Record)>),
}

/// Build a [`Record::Obj`] from `"key": value` pairs, converting each value
/// with `Record::from`.
#[macro_export]
macro_rules! record {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::record::Record::Obj(vec![
            $(($key.to_string(), $crate::record::Record::from($value))),*
        ])
    };
}

impl From<bool> for Record {
    fn from(b: bool) -> Record {
        Record::Bool(b)
    }
}

impl From<f64> for Record {
    fn from(n: f64) -> Record {
        Record::Num(n)
    }
}

macro_rules! int_records {
    ($($t:ty),*) => {$(
        impl From<$t> for Record {
            fn from(i: $t) -> Record {
                Record::Int(i as i64)
            }
        }
    )*};
}
int_records!(i64, u64, usize);

impl From<&str> for Record {
    fn from(s: &str) -> Record {
        Record::Str(s.to_string())
    }
}

impl From<&String> for Record {
    fn from(s: &String) -> Record {
        Record::Str(s.clone())
    }
}

impl From<String> for Record {
    fn from(s: String) -> Record {
        Record::Str(s)
    }
}

impl FromIterator<Record> for Record {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Record {
        Record::Arr(iter.into_iter().collect())
    }
}

impl Record {
    /// Render to compact JSON text.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Record::Bool(b) | Record::Verdict(b) => out.push_str(if *b { "true" } else { "false" }),
            Record::Int(i) => out.push_str(&i.to_string()),
            Record::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Record::Num(_) => out.push_str("null"),
            Record::Str(s) => write_escaped(s, out),
            Record::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Record::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Key paths (`rows[3].outputs_ok`) of every false [`Record::Verdict`].
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_failures(String::new(), &mut out);
        out
    }

    fn collect_failures(&self, path: String, out: &mut Vec<String>) {
        match self {
            Record::Verdict(false) => out.push(path),
            Record::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    item.collect_failures(format!("{path}[{i}]"), out);
                }
            }
            Record::Obj(fields) => {
                for (key, value) in fields {
                    let sep = if path.is_empty() { "" } else { "." };
                    value.collect_failures(format!("{path}{sep}{key}"), out);
                }
            }
            _ => {}
        }
    }

    /// Render as human-readable text: scalars as `key: value` lines, nested
    /// objects indented, arrays of objects as aligned tables whose headers
    /// are the keys, and strings verbatim.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.write_text("", &mut out);
        out
    }

    fn write_text(&self, indent: &str, out: &mut String) {
        let Record::Obj(fields) = self else {
            out.push_str(&format!("{indent}{}\n", self.cell()));
            return;
        };
        let deeper = format!("{indent}  ");
        for (key, value) in fields {
            match value {
                Record::Str(s) if s.contains('\n') => {
                    out.push_str(&format!("{indent}{key}:\n{s}"));
                    if !s.ends_with('\n') {
                        out.push('\n');
                    }
                }
                Record::Obj(_) => {
                    out.push_str(&format!("{indent}{key}:\n"));
                    value.write_text(&deeper, out);
                }
                Record::Arr(items) => {
                    out.push_str(&format!("{indent}{key}:\n"));
                    let rows: Vec<&[(String, Record)]> = items
                        .iter()
                        .filter_map(|r| match r {
                            Record::Obj(fields) => Some(fields.as_slice()),
                            _ => None,
                        })
                        .collect();
                    if !rows.is_empty() && rows.len() == items.len() {
                        write_table(&rows, &deeper, out);
                    } else {
                        for item in items {
                            item.write_text(&deeper, out);
                        }
                    }
                }
                scalar => out.push_str(&format!("{indent}{key}: {}\n", scalar.cell())),
            }
        }
    }

    /// One value as table-cell text (containers render as compact JSON).
    fn cell(&self) -> String {
        match self {
            Record::Verdict(false) => "false (FAILED)".into(),
            Record::Num(n) => format_num(*n),
            Record::Str(s) => s.clone(),
            other => other.render_json(),
        }
    }
}

/// About four significant digits, without exponents in the usual range.
fn format_num(n: f64) -> String {
    if !n.is_finite() || n == 0.0 || n.fract() == 0.0 && n.abs() < 1e15 {
        return format!("{n}");
    }
    let decimals = (3 - n.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{n:.decimals$}")
}

fn write_table(rows: &[&[(String, Record)]], indent: &str, out: &mut String) {
    let mut headers: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().copied().flatten() {
        if !headers.contains(&key.as_str()) {
            headers.push(key);
        }
    }
    let cells: Vec<Vec<(String, bool)>> = rows
        .iter()
        .map(|row| {
            headers
                .iter()
                .map(|h| match row.iter().find(|(k, _)| k == h) {
                    Some((_, v)) => (v.cell(), matches!(v, Record::Int(_) | Record::Num(_))),
                    None => (String::new(), false),
                })
                .collect()
        })
        .collect();
    // Numeric columns, header included, align right.
    let columns: Vec<(usize, bool)> = (0..headers.len())
        .map(|c| {
            let width = cells.iter().map(|row| row[c].0.len()).fold(headers[c].len(), usize::max);
            (width, cells.iter().any(|row| row[c].1))
        })
        .collect();
    let mut line = |row: Vec<&str>| {
        let text: Vec<String> = row
            .iter()
            .zip(&columns)
            .map(|(s, &(w, right))| if right { format!("{s:>w$}") } else { format!("{s:<w$}") })
            .collect();
        out.push_str(&format!("{indent}{}\n", text.join("  ").trim_end()));
    };
    line(headers.clone());
    for row in &cells {
        line(row.iter().map(|(s, _)| s.as_str()).collect());
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_json() {
        let v = record! {
            "s": "a\"b\\c\nd",
            "i": -3i64,
            "f": 2.5,
            "nan": f64::NAN,
            "a": vec![Record::Bool(true), Record::Verdict(false)].into_iter().collect::<Record>(),
        };
        assert_eq!(
            v.render_json(),
            r#"{"s":"a\"b\\c\nd","i":-3,"f":2.5,"nan":null,"a":[true,false]}"#
        );
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        assert_eq!(Record::from("\u{1}").render_json(), "\"\\u0001\"");
    }

    #[test]
    fn a_nested_false_verdict_names_its_key_path() {
        let rows: Record = [true, false]
            .into_iter()
            .map(|ok| record! { "pool": false, "outputs_ok": Record::Verdict(ok) })
            .collect();
        let r = record! {
            "outputs_match": Record::Verdict(true),
            "serve": record! { "rows": rows },
        };
        assert_eq!(r.failures(), ["serve.rows[1].outputs_ok"]);
        // A plain false flag is data, not a failure.
        assert!(record! { "pool": false }.failures().is_empty());
    }

    #[test]
    fn arrays_of_objects_render_as_aligned_tables() {
        let rows: Record = [("naive", 3.719, 900usize), ("pooled", 3.612, 3)]
            .into_iter()
            .map(|(c, s, m)| record! { "config": c, "sac_s": s, "options": record! { "mallocs": m } })
            .collect();
        let text = record! { "total_s": 1.5, "rows": rows }.render_text();
        assert_eq!(
            text,
            "total_s: 1.500\n\
             rows:\n  \
             config  sac_s  options\n  \
             naive   3.719  {\"mallocs\":900}\n  \
             pooled  3.612  {\"mallocs\":3}\n"
        );
    }
}
