//! The canonical JSON writer behind every hand-ordered document in the
//! workspace (reports, timelines, manifests, flight dumps, profiles) but
//! one: `dota-trace`'s Chrome trace and counter snapshot, which keep their
//! own escaper and `fmt_f64` because `trace` depends on no other crate.
//!
//! Callers state keys and values in the order the document pins; the
//! writer owns what used to be re-typed at every site — commas, nesting,
//! string escaping, [`fmt_f64`](crate::fmt_f64) numbers, `null` for
//! absent or non-finite values, and the two layouts the committed
//! baselines use: compact (`{"a":1,"b":[2,3]}`) and pretty (one member per
//! line, two-space indent, `"key": value`).

use std::io;
use std::path::Path;

/// A value that knows how to write itself: scalars as one token, report
/// types as the object or array their document pins.
pub trait ToJson {
    /// Writes the value as the writer's next value.
    fn write_json(&self, w: &mut JsonWriter);
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.separate();
                w.out.push_str(&self.to_string());
            }
        }
    )*};
}
display_json!(u8, u32, u64, usize, i64, bool);

/// Shortest round-trip decimal; `null` when not finite.
impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.separate();
        w.out.push_str(&crate::fmt_f64(*self));
    }
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.separate();
        crate::write_json_string(&mut w.out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_str().write_json(w);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

/// `null` when absent.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.separate();
                w.out.push_str("null");
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// No whitespace at all.
    Compact,
    /// One line, `, ` between members (scalar arrays of pretty documents).
    Inline,
    /// One member per line at two spaces per nesting level.
    Lines,
}

#[derive(Debug)]
struct Frame {
    layout: Layout,
    close: char,
    has_member: bool,
}

/// Streaming writer for one JSON document (see the module docs).
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    root: Layout,
    open: Vec<Frame>,
    /// A key was just written: the next value follows it directly.
    after_key: bool,
}

impl JsonWriter {
    /// A writer whose containers are compact unless asked otherwise.
    pub fn compact() -> Self {
        Self::with_root(Layout::Compact)
    }

    /// A writer whose containers put one member per line unless asked
    /// otherwise.
    pub fn pretty() -> Self {
        Self::with_root(Layout::Lines)
    }

    fn with_root(root: Layout) -> Self {
        Self {
            out: String::new(),
            root,
            open: Vec::new(),
            after_key: false,
        }
    }

    fn layout(&self) -> Layout {
        self.open.last().map_or(self.root, |f| f.layout)
    }

    fn newline(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', depth * 2));
    }

    /// Positions the cursor for the next member of the open container.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let depth = self.open.len();
        let Some(frame) = self.open.last_mut() else {
            return;
        };
        let (layout, had_member) = (frame.layout, std::mem::replace(&mut frame.has_member, true));
        if had_member {
            self.out.push(',');
        }
        match layout {
            Layout::Compact => {}
            Layout::Inline if had_member => self.out.push(' '),
            Layout::Inline => {}
            Layout::Lines => self.newline(depth),
        }
    }

    fn begin(&mut self, layout: Layout, open: char, close: char) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.open.push(Frame {
            layout,
            close,
            has_member: false,
        });
        self
    }

    /// Opens an object in the surrounding layout.
    pub fn obj(&mut self) -> &mut Self {
        self.begin(self.layout(), '{', '}')
    }

    /// Opens an array in the surrounding layout.
    pub fn arr(&mut self) -> &mut Self {
        self.begin(self.layout(), '[', ']')
    }

    /// Opens a compact object inside a pretty document (one event or
    /// summary per line).
    pub fn compact_obj(&mut self) -> &mut Self {
        self.begin(Layout::Compact, '{', '}')
    }

    /// Closes the innermost open container.
    ///
    /// # Panics
    ///
    /// Panics when nothing is open (a bug in the calling serializer).
    pub fn end(&mut self) -> &mut Self {
        let frame = self.open.pop().expect("end() without an open container");
        if frame.layout == Layout::Lines && frame.has_member {
            self.newline(self.open.len());
        }
        self.out.push(frame.close);
        self
    }

    /// Writes a member key; the next value (or container) belongs to it.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        crate::write_json_string(&mut self.out, key);
        self.out.push_str(if self.layout() == Layout::Compact {
            ":"
        } else {
            ": "
        });
        self.after_key = true;
        self
    }

    /// Writes one value: an array element, or the value of the last key.
    pub fn value(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self);
        self
    }

    /// `key` then `value`.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// `key` then an array of `values` (single-line in either layout).
    pub fn list<V: ToJson>(&mut self, key: &str, values: impl IntoIterator<Item = V>) -> &mut Self {
        self.key(key);
        let layout = match self.layout() {
            Layout::Compact => Layout::Compact,
            _ => Layout::Inline,
        };
        self.begin(layout, '[', ']');
        for v in values {
            self.value(v);
        }
        self.end()
    }

    /// `key` then an object with one member per map entry.
    pub fn map<K: AsRef<str>, V: ToJson>(
        &mut self,
        key: &str,
        entries: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Self {
        self.key(key).obj();
        for (k, v) in entries {
            self.field(k.as_ref(), v);
        }
        self.end()
    }

    /// The finished document, newline-terminated.
    ///
    /// # Panics
    ///
    /// Panics when a container is still open (a bug in the calling
    /// serializer).
    pub fn finish(self) -> String {
        self.fragment() + "\n"
    }

    /// The finished text without a trailing newline (one JSONL row, or a
    /// value a caller embeds elsewhere).
    ///
    /// # Panics
    ///
    /// As [`finish`](Self::finish).
    pub fn fragment(self) -> String {
        assert!(self.open.is_empty(), "fragment() with an open container");
        self.out
    }
}

/// Writes `contents` to `path` crash-safely: the bytes go to a uniquely
/// named temp file in `path`'s directory, which is then atomically renamed
/// over `path`. A reader (or a resume after a crash) sees either the
/// previous complete file or the new complete file, never a partial write.
///
/// # Errors
///
/// Propagates the underlying I/O error (the temp file is cleaned up).
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair(u64, u64);

    impl ToJson for Pair {
        fn write_json(&self, w: &mut JsonWriter) {
            w.obj().field("a", self.0).field("b", self.1).end();
        }
    }

    #[test]
    fn compact_documents_have_no_whitespace() {
        let mut w = JsonWriter::compact();
        w.obj()
            .field("n", 3u64)
            .field("x", 0.5)
            .field("nan", f64::NAN)
            .field("none", None::<u64>)
            .field("s", "a\"b")
            .list("xs", [1.0, 2.5])
            .field("o", Pair(1, 2))
            .list("rows", [Pair(3, 4), Pair(5, 6)]);
        w.key("steps").arr();
        w.arr().value(1u64).value(2u64).end();
        w.end().end();
        assert_eq!(
            w.finish(),
            "{\"n\":3,\"x\":0.5,\"nan\":null,\"none\":null,\"s\":\"a\\\"b\",\"xs\":[1,2.5],\
             \"o\":{\"a\":1,\"b\":2},\"rows\":[{\"a\":3,\"b\":4},{\"a\":5,\"b\":6}],\
             \"steps\":[[1,2]]}\n"
        );
    }

    #[test]
    fn pretty_documents_indent_members_and_inline_scalar_lists() {
        let mut w = JsonWriter::pretty();
        w.obj()
            .field("label", "x")
            .list("tags", ["a", "b"])
            .list("none", Vec::<u64>::new())
            .map("counters", [("a.b", 1u64), ("c", 2)])
            .map("empty", Vec::<(&str, u64)>::new());
        w.key("events").arr();
        w.compact_obj().field("seq", 0u64).field("kind", "k").end();
        w.compact_obj().field("seq", 1u64).end();
        w.end().end();
        assert_eq!(
            w.finish(),
            "{\n  \"label\": \"x\",\n  \"tags\": [\"a\", \"b\"],\n  \"none\": [],\n  \
             \"counters\": {\n    \"a.b\": 1,\n    \"c\": 2\n  },\n  \"empty\": {},\n  \
             \"events\": [\n    {\"seq\":0,\"kind\":\"k\"},\n    {\"seq\":1}\n  ]\n}\n"
        );
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("dota_metrics_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, "old").unwrap();
        write_atomic(&path, "new").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
