//! A minimal XML 1.0 subset: writer and recursive-descent parser.
//!
//! Supported: elements, attributes (double- or single-quoted), character
//! data, self-closing tags, the five predefined entities, decimal/hex
//! character references, and an optional leading `<?xml ...?>` declaration.
//!
//! Rejected by design: DTDs, comments, processing instructions (other than
//! the XML declaration), CDATA sections, and namespaces. The protocol never
//! emits them, and a parser that refuses them cannot be pushed into entity
//! expansion or external-fetch behaviour by a hostile peer.
//!
//! Character data is canonicalised on parse: leading and trailing
//! whitespace of an element's text is trimmed (needed to interleave text
//! with child elements unambiguously). Protocol consequence: free-text
//! fields — comments, passwords — are whitespace-trimmed end to end.

use std::fmt;

/// An XML element node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlNode {
    /// Element name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated character data directly inside this element.
    pub text: String,
}

/// Parse or structure errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

impl XmlNode {
    /// New element with no attributes or content.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode { name: name.into(), ..Default::default() }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Builder: add a child element containing only text.
    pub fn text_child(self, name: impl Into<String>, text: impl Into<String>) -> Self {
        self.child(XmlNode::new(name).with_text(text))
    }

    /// Builder: set this element's text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// First attribute value with the given key.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn get_child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with the given name.
    pub fn get_children<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the first child with the given name (common protocol shape).
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.get_child(name).map(|c| c.text.as_str())
    }

    /// Serialise to a compact document with the XML declaration.
    pub fn to_document(&self) -> String {
        let mut out = String::with_capacity(DECLARATION.len() + self.size_hint());
        out.push_str(DECLARATION);
        self.write_into(&mut out);
        out
    }

    /// Serialised length before escaping, so a page-sized document is
    /// allocated once instead of doubling its way up.
    fn size_hint(&self) -> usize {
        let attrs: usize = self.attrs.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
        let children: usize = self.children.iter().map(XmlNode::size_hint).sum();
        2 * self.name.len() + 5 + attrs + self.text.len() + children
    }

    fn write_into(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for child in &self.children {
            child.write_into(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parse a document (optionally starting with an XML declaration) into
    /// its root element.
    pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
        let mut p = Parser { input, pos: 0 };
        p.skip_whitespace();
        p.skip_declaration()?;
        p.skip_whitespace();
        let node = p.parse_element()?;
        p.skip_whitespace();
        if p.pos != p.input.len() {
            return Err(p.err("trailing content after root element"));
        }
        Ok(node)
    }
}

const DECLARATION: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Bit `b` is set for each byte `b` that is written as an entity.
const ESCAPED: u64 = 1 << b'&' | 1 << b'<' | 1 << b'>' | 1 << b'"' | 1 << b'\'';

/// Copies each run of clean text with one `push_str`. Finding the next
/// escapable byte is one mask test per byte: a `match` compiles to a
/// compare tree whose branches mispredict on random hex digits. The five
/// bytes are ASCII, so every cut falls on a char boundary.
fn escape_into(text: &str, out: &mut String) {
    let mut rest = text;
    while let Some(i) = rest.bytes().position(|b| b < 64 && ESCAPED >> b & 1 == 1) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Trims `text` like `str::trim` without reallocating, and without
/// touching it when there is nothing to trim.
fn trim_in_place(text: &mut String) {
    let end = text.trim_end().len();
    text.truncate(end);
    let start = end - text.trim_start().len();
    text.drain(..start);
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, expected: u8) -> Result<(), XmlError> {
        match self.bump() {
            Some(b) if b == expected => Ok(()),
            Some(b) => {
                Err(self.err(format!("expected '{}', found '{}'", expected as char, b as char)))
            }
            None => Err(self.err(format!("expected '{}', found end of input", expected as char))),
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_declaration(&mut self) -> Result<(), XmlError> {
        if !self.starts_with("<?xml") {
            return Ok(());
        }
        match self.input.as_bytes()[self.pos..].windows(2).position(|w| w == b"?>") {
            Some(rel) => {
                self.pos += rel + 2;
                Ok(())
            }
            None => Err(self.err("unterminated XML declaration")),
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        let is_name = |b: &&u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
        self.pos += self.input.as_bytes()[start..].iter().take_while(is_name).count();
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name =
            self.input.get(start..self.pos).ok_or_else(|| self.err("name is not valid UTF-8"))?;
        if name.as_bytes()[0].is_ascii_digit() {
            return Err(self.err("names may not start with a digit"));
        }
        Ok(name.to_string())
    }

    fn parse_element(&mut self) -> Result<XmlNode, XmlError> {
        self.eat(b'<')?;
        if matches!(self.peek(), Some(b'!' | b'?')) {
            return Err(self.err("comments, DTDs and processing instructions are not supported"));
        }
        let name = self.parse_name()?;
        let mut node = XmlNode::new(name);

        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.eat(b'>')?;
                    return Ok(node);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_whitespace();
                    self.eat(b'=')?;
                    self.skip_whitespace();
                    let quote = self.bump().ok_or_else(|| self.err("unterminated attribute"))?;
                    if quote != b'"' && quote != b'\'' {
                        return Err(self.err("attribute value must be quoted"));
                    }
                    let mut value = String::new();
                    self.parse_text_until(quote, &mut value)?;
                    self.eat(quote)?;
                    node.attrs.push((key, value));
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }

        // Content: interleaved text and child elements until the end tag.
        loop {
            match self.peek() {
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let end_name = self.parse_name()?;
                        if end_name != node.name {
                            return Err(self.err(format!(
                                "mismatched end tag: expected </{}>, found </{end_name}>",
                                node.name
                            )));
                        }
                        self.skip_whitespace();
                        self.eat(b'>')?;
                        trim_in_place(&mut node.text);
                        return Ok(node);
                    }
                    node.children.push(self.parse_element()?);
                }
                Some(_) => self.parse_text_until(b'<', &mut node.text)?,
                None => return Err(self.err(format!("unterminated element <{}>", node.name))),
            }
        }
    }

    /// Append character data (decoding entities) to `out` until `stop`
    /// (not consumed). Text between entities is copied a whole run at a
    /// time: a run starts and ends at an ASCII byte or the input's end, so
    /// it is a char boundary of the `&str` input and stays valid UTF-8.
    fn parse_text_until(&mut self, stop: u8, out: &mut String) -> Result<(), XmlError> {
        loop {
            let start = self.pos;
            let rest = &self.input.as_bytes()[start..];
            self.pos += rest.iter().position(|&b| b == stop || b == b'&').unwrap_or(rest.len());
            let run = self
                .input
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8 in character data"))?;
            out.push_str(run);
            match self.peek() {
                None if stop == b'<' => return Err(self.err("unterminated character data")),
                None => return Err(self.err("unterminated attribute value")),
                Some(b) if b == stop => return Ok(()),
                Some(_) => {
                    // The run stopped at '&'.
                    self.pos += 1;
                    let entity_start = self.pos;
                    while self.peek().is_some_and(|b| b != b';') {
                        self.pos += 1;
                        if self.pos - entity_start > 10 {
                            return Err(self.err("entity reference too long"));
                        }
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated entity reference"));
                    }
                    let entity = self
                        .input
                        .get(entity_start..self.pos)
                        .ok_or_else(|| self.err("entity is not valid UTF-8"))?;
                    self.pos += 1; // consume ';'
                    out.push(
                        decode_entity(entity).ok_or_else(|| {
                            self.err(format!("unknown entity reference &{entity};"))
                        })?,
                    );
                }
            }
        }
    }
}

fn decode_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let code = entity.strip_prefix('#')?;
            let value = if let Some(hex) = code.strip_prefix('x').or_else(|| code.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                code.parse::<u32>().ok()?
            };
            char::from_u32(value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_serialises_simple_document() {
        let node = XmlNode::new("request")
            .attr("type", "vote")
            .text_child("software", "abc123")
            .text_child("score", "7");
        let doc = node.to_document();
        assert_eq!(
            doc,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><request type=\"vote\">\
             <software>abc123</software><score>7</score></request>"
        );
    }

    #[test]
    fn parses_what_it_writes() {
        let node = XmlNode::new("response")
            .attr("status", "ok")
            .child(XmlNode::new("rating").attr("value", "8.5").with_text("good & <safe>"))
            .text_child("comment", "uses \"quotes\" and 'apostrophes'");
        let parsed = XmlNode::parse(&node.to_document()).unwrap();
        assert_eq!(parsed, node);
    }

    #[test]
    fn self_closing_tags_parse() {
        let parsed = XmlNode::parse("<ping/>").unwrap();
        assert_eq!(parsed, XmlNode::new("ping"));
        let parsed = XmlNode::parse("<ping  />").unwrap();
        assert_eq!(parsed.name, "ping");
    }

    #[test]
    fn attributes_with_single_quotes_parse() {
        let parsed = XmlNode::parse("<a k='v \"w\"'/>").unwrap();
        assert_eq!(parsed.get_attr("k").unwrap(), "v \"w\"");
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let parsed = XmlNode::parse("<a k=\"&lt;&amp;&gt;\">&#65;&#x42;c</a>").unwrap();
        assert_eq!(parsed.get_attr("k").unwrap(), "<&>");
        assert_eq!(parsed.text, "ABc");
    }

    #[test]
    fn mismatched_tags_are_rejected() {
        assert!(XmlNode::parse("<a><b></a></b>").is_err());
        assert!(XmlNode::parse("<a>").is_err());
        assert!(XmlNode::parse("<a></b>").is_err());
    }

    #[test]
    fn hostile_constructs_are_rejected() {
        assert!(XmlNode::parse("<!DOCTYPE foo [<!ENTITY x \"y\">]><a/>").is_err());
        assert!(XmlNode::parse("<a><!-- comment --></a>").is_err());
        assert!(XmlNode::parse("<a><?pi data?></a>").is_err());
        assert!(XmlNode::parse("<a>&external;</a>").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(XmlNode::parse("<a/><b/>").is_err());
        assert!(XmlNode::parse("<a/>junk").is_err());
    }

    #[test]
    fn declaration_is_skipped() {
        let parsed = XmlNode::parse("<?xml version=\"1.0\"?>\n  <root/>").unwrap();
        assert_eq!(parsed.name, "root");
    }

    #[test]
    fn nested_children_and_accessors() {
        let doc = "<sw><name>WeatherBar</name><vendor>Acme</vendor>\
                   <behavior>ads</behavior><behavior>tracking</behavior></sw>";
        let parsed = XmlNode::parse(doc).unwrap();
        assert_eq!(parsed.child_text("name").unwrap(), "WeatherBar");
        assert_eq!(parsed.get_children("behavior").count(), 2);
        assert!(parsed.get_child("missing").is_none());
        assert!(parsed.child_text("missing").is_none());
    }

    #[test]
    fn unicode_text_roundtrips() {
        let node = XmlNode::new("msg").with_text("Blekinge Tekniska Högskola — 評価 ✓");
        let parsed = XmlNode::parse(&node.to_document()).unwrap();
        assert_eq!(parsed.text, "Blekinge Tekniska Högskola — 評価 ✓");
    }

    #[test]
    fn names_cannot_start_with_digit() {
        assert!(XmlNode::parse("<1a/>").is_err());
    }

    #[test]
    fn deeply_nested_structure_roundtrips() {
        let mut node = XmlNode::new("level0");
        for i in 1..50 {
            node = XmlNode::new(format!("level{i}")).child(node);
        }
        let parsed = XmlNode::parse(&node.to_document()).unwrap();
        assert_eq!(parsed, node);
    }
}
