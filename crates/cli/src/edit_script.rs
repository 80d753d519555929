//! The `costar edit` script format:
//! `{"edits":[{"start":B,"end":B,"replacement":S},...]}`.
//!
//! The text is read by the workspace's one JSON reader
//! ([`costar_grammar::json`]), so any standard JSON a tool writes is
//! accepted and a syntax error names its byte offset; this module only
//! walks the schema. The walk is strict — the top level holds exactly
//! `"edits"`, each edit exactly `"start"`, `"end"` and `"replacement"`,
//! offsets are unsigned integers — and a schema error names the edit.
//!
//! Offsets in the script are **byte** offsets into the *current* source,
//! i.e. each edit addresses the text as left by the previous edit, which
//! is how editors emit change streams.

use costar_grammar::json::{self, JsonValue};

/// One edit from the script: replace bytes `start..end` with
/// `replacement`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptEdit {
    /// Start byte offset (inclusive) in the current source.
    pub start: usize,
    /// End byte offset (exclusive) in the current source.
    pub end: usize,
    /// Replacement text (may be empty: a pure deletion).
    pub replacement: String,
}

/// Parses an edit script document. Returns the edits in script order.
pub fn parse(text: &str) -> Result<Vec<ScriptEdit>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let edits = match &doc {
        JsonValue::Obj(fields) => match fields.as_slice() {
            [(key, JsonValue::Arr(edits))] if key == "edits" => edits,
            _ => return Err("the script must hold exactly one key, \"edits\", an array".into()),
        },
        _ => return Err("the script must be a JSON object".into()),
    };
    edits
        .iter()
        .enumerate()
        .map(|(i, e)| edit(e).map_err(|msg| format!("edit {i}: {msg}")))
        .collect()
}

/// One `{"start":N,"end":N,"replacement":S}` object, keys in any order,
/// each required exactly once.
fn edit(v: &JsonValue) -> Result<ScriptEdit, String> {
    let JsonValue::Obj(fields) = v else {
        return Err("expected an object".into());
    };
    let (mut start, mut end, mut replacement) = (None, None, None);
    for (key, value) in fields {
        let first = match key.as_str() {
            "start" => start.replace(offset(value)?).is_none(),
            "end" => end.replace(offset(value)?).is_none(),
            "replacement" => {
                let text = value.as_str().ok_or("\"replacement\" must be a string")?;
                replacement.replace(text.to_owned()).is_none()
            }
            other => return Err(format!("unknown key {other:?}")),
        };
        if !first {
            return Err(format!("duplicate key {key:?}"));
        }
    }
    let (Some(start), Some(end), Some(replacement)) = (start, end, replacement) else {
        return Err("an edit needs \"start\", \"end\", and \"replacement\"".into());
    };
    if end < start {
        return Err(format!("range {start}..{end} is reversed"));
    }
    Ok(ScriptEdit {
        start,
        end,
        replacement,
    })
}

fn offset(v: &JsonValue) -> Result<usize, String> {
    v.as_usize()
        .ok_or_else(|| "offsets must be unsigned integers".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_script() {
        let edits = parse(
            r#"{ "edits": [
                {"start": 3, "end": 5, "replacement": "xy"},
                {"replacement": "", "start": 0, "end": 1},
                {"start": 7, "end": 7, "replacement": "a\nb\"c\\dA"}
            ] }"#,
        )
        .unwrap();
        assert_eq!(edits.len(), 3);
        assert_eq!(
            edits[0],
            ScriptEdit {
                start: 3,
                end: 5,
                replacement: "xy".into()
            }
        );
        assert_eq!(edits[1].replacement, "");
        assert_eq!(edits[2].replacement, "a\nb\"c\\dA");
    }

    #[test]
    fn empty_script_is_fine() {
        assert_eq!(parse(r#"{"edits":[]}"#).unwrap(), Vec::new());
    }

    #[test]
    fn utf8_replacements_pass_through() {
        let edits = parse(r#"{"edits":[{"start":0,"end":0,"replacement":"héllo→∞"}]}"#).unwrap();
        assert_eq!(edits[0].replacement, "héllo→∞");
    }

    #[test]
    fn malformed_scripts_are_rejected_with_positions() {
        for bad in [
            "",
            "[]",
            r#"{"edits":}"#,
            r#"{"edit":[]}"#,
            r#"{"edits":[{"start":1,"end":2}]}"#,
            r#"{"edits":[{"start":1,"end":2,"replacement":"x","start":3}]}"#,
            r#"{"edits":[{"start":5,"end":2,"replacement":"x"}]}"#,
            r#"{"edits":[{"start":1,"end":2,"replacement":"x","size":9}]}"#,
            r#"{"edits":[{"start":-1,"end":2,"replacement":"x"}]}"#,
            r#"{"edits":[{"start":1.5,"end":2,"replacement":"x"}]}"#,
            r#"{"edits":[]} trailing"#,
            r#"{"edits":[{"start":1,"end":2,"replacement":"unterminated}]}"#,
        ] {
            assert!(parse(bad).is_err(), "accepted malformed script: {bad:?}");
        }
    }

    #[test]
    fn syntax_errors_name_a_byte_offset() {
        let err = parse(r#"{"edits":[{"start":}]}"#).unwrap_err();
        assert!(err.ends_with("(at byte 19)"), "{err}");
        let err =
            parse(r#"{"edits":[{"start":1,"end":2,"replacement":"x","size":9}]}"#).unwrap_err();
        assert!(err.starts_with("edit 0: unknown key"), "{err}");
    }

    #[test]
    fn standard_escapes_decode() {
        let edits =
            parse(r#"{"edits":[{"start":0,"end":0,"replacement":"\"\ud83d\ude00\b\f\""}]}"#)
                .unwrap();
        assert_eq!(edits[0].replacement, "\"😀\u{8}\u{c}\"");
    }
}
