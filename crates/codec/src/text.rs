//! The workspace's one text reader: the TOML subset that `.scn` scenario
//! documents and fuzz repro files are written in.
//!
//! A [`Document`] is a root table plus ordered sections of `key = value`
//! lines, keys being ASCII letters, digits and `_`. Keys before any
//! header belong to the root table, `[name]` opens a section that may
//! appear once, and `[[name]]` opens one entry of a repeatable section.
//! `#` starts a comment anywhere outside a quoted string. A value is
//! either a quoted string, with the escapes `\\ \" \n \t \r` that
//! [`quote`] writes, or bare text kept verbatim, so callers parse numbers
//! exactly (`u64` seeds and signatures, `f64` literals) with `FromStr`.
//! Duplicate keys within a table and duplicate `[name]` sections are
//! errors. Every error is one [`TextError`] carrying its 1-based line, and
//! parsing never panics.
//!
//! Callers read a table through [`Fields`], which records the keys they
//! asked for, so a key no caller wanted is reported at its own line.

use std::fmt;
use std::str::FromStr;

/// A parse error anchored to a 1-based line of the source document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number in the source.
    pub line: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl TextError {
    /// An error at `line`.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TextError {}

/// A value as written: a quoted string (unescaped) or bare text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// The body of a quoted string, escapes resolved.
    Str(String),
    /// Unquoted text, trimmed but otherwise verbatim.
    Bare(String),
}

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// 1-based line the entry sits on.
    pub line: usize,
}

impl Entry {
    /// The value of a quoted string; bare text is an error.
    pub fn string(&self) -> Result<&str, TextError> {
        match &self.value {
            Value::Str(s) => Ok(s),
            Value::Bare(_) => Err(TextError::new(self.line, "expected a quoted string")),
        }
    }

    /// A quoted keyword mapped through `choices`; `what` names it in the
    /// error (`"trigger"`).
    pub fn keyword<T: Copy>(&self, what: &str, choices: &[(&str, T)]) -> Result<T, TextError> {
        let text = self.string()?;
        choices
            .iter()
            .find(|(name, _)| *name == text)
            .map(|&(_, v)| v)
            .ok_or_else(|| TextError::new(self.line, format!("unknown {what} `{text}`")))
    }

    /// Parses bare text with `FromStr`; `what` names the expected value in
    /// the error (`"a number"`).
    pub fn parse<T: FromStr>(&self, what: &str) -> Result<T, TextError> {
        match &self.value {
            Value::Bare(text) => text
                .parse()
                .map_err(|_| TextError::new(self.line, format!("expected {what}, got `{text}`"))),
            Value::Str(_) => Err(TextError::new(
                self.line,
                format!("expected {what}, not a string"),
            )),
        }
    }
}

/// The root table or one section, with its entries in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Section name; empty for the root table.
    pub name: String,
    /// `[[name]]` rather than `[name]`.
    pub array: bool,
    /// Line of the header; 1 for the root table.
    pub line: usize,
    /// Entries in document order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// The header as written: `[name]` or `[[name]]`.
    #[must_use]
    pub fn header(&self) -> String {
        if self.array {
            format!("[[{}]]", self.name)
        } else {
            format!("[{}]", self.name)
        }
    }

    /// A reader over this table's entries that records which keys were
    /// asked for.
    #[must_use]
    pub fn fields(&self) -> Fields<'_> {
        Fields {
            table: self,
            used: vec![false; self.entries.len()],
        }
    }

    /// `" in [name]"`, or nothing for the root table.
    fn context(&self) -> String {
        if self.name.is_empty() {
            String::new()
        } else {
            format!(" in {}", self.header())
        }
    }
}

/// Keyed access to one table that remembers which keys were used.
#[derive(Debug)]
pub struct Fields<'t> {
    table: &'t Table,
    used: Vec<bool>,
}

impl<'t> Fields<'t> {
    /// The entry for `key`, if present.
    pub fn optional(&mut self, key: &str) -> Option<&'t Entry> {
        let table = self.table;
        let i = table.entries.iter().position(|e| e.key == key)?;
        self.used[i] = true;
        Some(&table.entries[i])
    }

    /// The entry for `key`; an absent key is an error at the table header.
    pub fn required(&mut self, key: &str) -> Result<&'t Entry, TextError> {
        self.optional(key).ok_or_else(|| {
            TextError::new(
                self.table.line,
                format!("missing `{key}`{}", self.table.context()),
            )
        })
    }

    /// The first entry, in document order, that no accessor asked for.
    #[must_use]
    pub fn unused(&self) -> Option<&'t Entry> {
        let table = self.table;
        table
            .entries
            .iter()
            .zip(&self.used)
            .find_map(|(e, &used)| (!used).then_some(e))
    }

    /// Ends the read: a key no accessor asked for is an error at its line.
    pub fn finish(self) -> Result<(), TextError> {
        self.unused().map_or(Ok(()), |e| {
            let context = self.table.context();
            Err(TextError::new(
                e.line,
                format!("unknown key `{}`{context}", e.key),
            ))
        })
    }
}

/// A parsed document: the root table and the sections after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Keys before the first header.
    pub root: Table,
    /// Sections in document order.
    pub sections: Vec<Table>,
}

impl Document {
    /// Splits `text` into tables.
    pub fn parse(text: &str) -> Result<Self, TextError> {
        let mut root = Table {
            name: String::new(),
            array: false,
            line: 1,
            entries: Vec::new(),
        };
        let mut sections: Vec<Table> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let body = uncommented(raw).trim();
            if body.is_empty() {
                continue;
            }
            if let Some(rest) = body.strip_prefix('[') {
                let (array, inner) = match rest.strip_prefix('[') {
                    Some(rest) => (true, rest.strip_suffix("]]")),
                    None => (false, rest.strip_suffix(']')),
                };
                let name = inner.map(str::trim).unwrap_or_default();
                if name.is_empty() {
                    return Err(TextError::new(line, "malformed section header"));
                }
                if sections
                    .iter()
                    .any(|t| t.name == name && !(array && t.array))
                {
                    return Err(TextError::new(line, format!("duplicate [{name}] section")));
                }
                sections.push(Table {
                    name: name.to_owned(),
                    array,
                    line,
                    entries: Vec::new(),
                });
                continue;
            }
            let (key, value) = body
                .split_once('=')
                .ok_or_else(|| TextError::new(line, "expected `key = value`"))?;
            let key = key.trim();
            if key.is_empty() || !key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
                return Err(TextError::new(line, format!("invalid key `{key}`")));
            }
            let value = parse_value(value.trim(), line)?;
            let table = sections.last_mut().unwrap_or(&mut root);
            if table.entries.iter().any(|e| e.key == key) {
                return Err(TextError::new(line, format!("duplicate key `{key}`")));
            }
            table.entries.push(Entry {
                key: key.to_owned(),
                value,
                line,
            });
        }
        Ok(Self { root, sections })
    }

    /// The root table of a flat document; any section is an error.
    pub fn into_root(self) -> Result<Table, TextError> {
        match self.sections.first() {
            Some(t) => Err(TextError::new(
                t.line,
                format!("unexpected section `{}`", t.header()),
            )),
            None => Ok(self.root),
        }
    }

    /// The sections of a sectioned document; a key before the first header
    /// is an error.
    pub fn into_sections(self) -> Result<Vec<Table>, TextError> {
        match self.root.entries.first() {
            Some(e) => Err(TextError::new(e.line, "key outside any section")),
            None => Ok(self.sections),
        }
    }
}

/// The keyword `choices` spell `value` with, the inverse of
/// [`Entry::keyword`]; empty when no choice matches.
#[must_use]
pub fn keyword_of<T: PartialEq>(choices: &[(&'static str, T)], value: &T) -> &'static str {
    choices.iter().find(|(_, v)| v == value).map_or("", |c| c.0)
}

/// The one escape set: each character and the letter after its `\`.
const ESCAPES: [(char, char); 5] = [
    ('\\', '\\'),
    ('"', '"'),
    ('\n', 'n'),
    ('\t', 't'),
    ('\r', 'r'),
];

/// `s` as a quoted string that [`Document::parse`] reads back as `s`.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match ESCAPES.iter().find(|e| e.0 == c) {
            Some(&(_, letter)) => out.extend(['\\', letter]),
            None => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `line` up to a `#` that sits outside any quoted string.
fn uncommented(line: &str) -> &str {
    let mut in_quote = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quote => escaped = true,
            '"' => in_quote = !in_quote,
            '#' if !in_quote => return &line[..i],
            _ => {}
        }
    }
    line
}

/// One trimmed value: a quoted string or bare text.
fn parse_value(raw: &str, line: usize) -> Result<Value, TextError> {
    if raw.is_empty() {
        return Err(TextError::new(line, "missing value after `=`"));
    }
    let Some(body) = raw.strip_prefix('"') else {
        return Ok(Value::Bare(raw.to_owned()));
    };
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    loop {
        match chars.next() {
            Some('"') if chars.as_str().trim().is_empty() => return Ok(Value::Str(out)),
            Some('"') => {
                return Err(TextError::new(line, "trailing text after closing quote"));
            }
            Some('\\') => match chars.next().and_then(|l| ESCAPES.iter().find(|e| e.1 == l)) {
                Some(&(c, _)) => out.push(c),
                None => return Err(TextError::new(line, "unsupported escape sequence")),
            },
            Some(c) => out.push(c),
            None => return Err(TextError::new(line, "unterminated string")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(text: &str) -> TextError {
        Document::parse(text).unwrap_err()
    }

    #[test]
    fn tables_keep_document_order() {
        let doc = Document::parse("top = 1\n[one]\na = \"x\"\n[[many]]\nb = 2\n[[many]]\nb = 3\n")
            .unwrap();
        assert_eq!(doc.root.entries[0].key, "top");
        let names: Vec<_> = doc.sections.iter().map(Table::header).collect();
        assert_eq!(names, ["[one]", "[[many]]", "[[many]]"]);
        assert_eq!(doc.sections[2].line, 6);
        assert_eq!(doc.sections[2].entries[0].value, Value::Bare("3".into()));
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let doc = Document::parse("s = \"a # b\" # note\nn = 7# tail\n").unwrap();
        let e = &doc.root.entries;
        assert_eq!(e[0].string().unwrap(), "a # b");
        assert_eq!(e[1].parse::<u64>("a u64").unwrap(), 7);
        let doc = Document::parse("s = \"q\\\"# still quoted\"\n").unwrap();
        assert_eq!(doc.root.entries[0].string().unwrap(), "q\"# still quoted");
    }

    #[test]
    fn every_escape_round_trips_through_quote() {
        for s in [
            "",
            "plain",
            "\\",
            "\"",
            "\n",
            "\t",
            "\r",
            "a\\\"b\n\t\r\"\\c # d",
            "ünï",
        ] {
            let doc = Document::parse(&format!("k = {}\n", quote(s))).unwrap();
            assert_eq!(doc.root.entries[0].string().unwrap(), s, "{s:?}");
        }
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn duplicates_are_reported_at_the_second_occurrence() {
        let e = err("[t]\nk = 1\n\nk = 2\n");
        assert_eq!((e.line, e.message.as_str()), (4, "duplicate key `k`"));
        let e = err("[t]\nk = 1\n[u]\n[t]\n");
        assert_eq!((e.line, e.message.as_str()), (4, "duplicate [t] section"));
        let e = err("[[t]]\n[t]\n");
        assert_eq!(e.line, 2);
        // Repeated array tables and equal keys in different tables are fine.
        assert!(Document::parse("[[t]]\nk = 1\n[[t]]\nk = 1\n").is_ok());
    }

    #[test]
    fn keys_before_any_header_when_sections_are_wanted() {
        let doc = Document::parse("\nstray = 1\n[t]\nk = 2\n").unwrap();
        let e = doc.clone().into_sections().unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "key outside any section"));
        let e = doc.into_root().unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (3, "unexpected section `[t]`")
        );
        assert_eq!(
            Document::parse("[t]\nk = 2\n")
                .unwrap()
                .into_sections()
                .unwrap()[0]
                .name,
            "t"
        );
    }

    #[test]
    fn malformed_strings_and_lines_are_errors() {
        for (text, line, message) in [
            ("a = 1\nk = \"open\n", 2, "unterminated string"),
            ("k = \"bad \\q\"\n", 1, "unsupported escape sequence"),
            ("k = \"x\" y\n", 1, "trailing text after closing quote"),
            ("k =\n", 1, "missing value after `=`"),
            ("just words\n", 1, "expected `key = value`"),
            ("🚗 = 3\n", 1, "invalid key `🚗`"),
            ("[t\n", 1, "malformed section header"),
            ("[[t]\n", 1, "malformed section header"),
            ("[ ]\n", 1, "malformed section header"),
        ] {
            let e = err(text);
            assert_eq!((e.line, e.message.as_str()), (line, message), "{text:?}");
        }
    }

    #[test]
    fn fields_report_missing_and_unknown_keys() {
        let doc = Document::parse("[t]\nknown = 1\nextra = 2\n").unwrap();
        let mut f = doc.sections[0].fields();
        assert!(f.required("known").is_ok());
        let e = f.required("absent").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (1, "missing `absent` in [t]"));
        assert_eq!(f.unused().map(|e| e.key.as_str()), Some("extra"));
        let e = f.finish().unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (3, "unknown key `extra` in [t]")
        );
        let e = doc.sections[0].entries[0].string().unwrap_err();
        assert_eq!(e.message, "expected a quoted string");
        let e = doc.sections[0].entries[0].parse::<u8>("a byte");
        assert_eq!(e, Ok(1));
    }

    #[test]
    fn error_lines_stay_within_the_document() {
        let base = "[a]\nk = \"v # w\"\nn = 1.5\n[[b]]\nm = 2\n";
        let structural = ['"', '=', '[', ']', '\\', '#', '\n'];
        for i in 0..base.len() {
            for c in structural {
                let mut text = base.to_owned();
                text.replace_range(i..=i, &c.to_string());
                if let Err(e) = Document::parse(&text) {
                    let lines = text.lines().count();
                    assert!(
                        (1..=lines).contains(&e.line),
                        "line {} of {lines}: {e}",
                        e.line
                    );
                }
            }
        }
    }
}
