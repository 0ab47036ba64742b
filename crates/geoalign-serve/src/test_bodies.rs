//! Generated `/crosswalk`-shaped bodies for the differential tests of
//! [`crate::json::decode_crosswalk`] and `POST /crosswalk`.
//!
//! One seed drives a whole body (SplitMix64). Bodies lean towards what a
//! handler must tell apart: key order, duplicate and escaped keys, nested
//! junk ahead of the fields, fields of the wrong type, non-numeric
//! elements in `values`, numbers outside the strict grammar that `parse`
//! still takes (`.5`, `+1`, `007`) or turns into infinities (`1e400`),
//! nesting at [`MAX_DEPTH`] and one past it, truncation and overwritten
//! bytes. The world they are aimed at has a `zip → county` pair over
//! three source units. The same seeded stream also drives the request
//! streams of the `RequestParser` fuzz in `http.rs`.

use crate::json::MAX_DEPTH;

/// A clean generator (even seeds) emits only tokens `parse` accepts, so
/// its bodies fail only by nesting; a dirty one (odd seeds) also emits
/// tokens `parse` rejects, and truncates or overwrites a byte.
pub(crate) struct BodyGen {
    state: u64,
    dirty: bool,
}

impl BodyGen {
    pub(crate) fn new(seed: u64) -> BodyGen {
        BodyGen {
            state: seed,
            dirty: seed % 2 == 1,
        }
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    pub(crate) fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    /// Picks from `clean`, or from `clean` and `bad` when dirty.
    fn token<'a>(&mut self, clean: &[&'a str], bad: &[&'a str]) -> &'a str {
        let n = clean.len() + if self.dirty { bad.len() } else { 0 };
        let i = self.below(n);
        clean
            .get(i)
            .copied()
            .unwrap_or_else(|| bad[i - clean.len()])
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\n\t", "\r\n  "])
    }

    fn number(&mut self) -> &'static str {
        self.token(
            &[
                "0",
                "10",
                "20.5",
                "7",
                "-0",
                "007",
                ".5",
                "+1",
                "1e400",
                "-1e400",
                "-3",
                "1E3",
                "999999999999999",
                "1234567890123456",
                "5e-324",
                "0.1",
            ],
            &["1e", "-", "1.2.3"],
        )
    }

    fn string(&mut self) -> &'static str {
        self.token(
            &[
                "\"zip\"",
                "\"county\"",
                "\"x\"",
                "\"\"",
                "\"a\\\"b\"",
                "\"\\u0041\"",
                "\"é世\"",
                "\"\\ud83d\\ude00\"",
            ],
            &["\"\\ud800\"", "\"\\q\"", "\"tab\t\""],
        )
    }

    /// `depth` nested arrays around a number.
    fn nest(depth: usize) -> String {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }

    /// Any value, nested at most `depth` more levels.
    fn junk(&mut self, depth: usize) -> String {
        match self.below(if depth == 0 { 3 } else { 5 }) {
            0 => self.number().to_owned(),
            1 => self.string().to_owned(),
            2 => self.token(&["true", "false", "null"], &["nul"]).to_owned(),
            3 => {
                let items: Vec<String> = (0..self.below(3))
                    .map(|_| format!("{}{}", self.ws(), self.junk(depth - 1)))
                    .collect();
                format!("[{}]", items.join(","))
            }
            _ => {
                let members: Vec<String> = (0..self.below(3))
                    .map(|_| {
                        let key = self.string();
                        format!("{key}{}:{}", self.ws(), self.junk(depth - 1))
                    })
                    .collect();
                format!("{{{}}}", members.join(","))
            }
        }
    }

    fn object(&mut self, members: Vec<String>) -> String {
        let members: Vec<String> = members
            .into_iter()
            .map(|m| format!("{}{m}{}", self.ws(), self.ws()))
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// A `values` array: mostly three numbers, sometimes another length,
    /// a non-number element, a deep element, or no array at all.
    fn values(&mut self) -> String {
        match self.below(12) {
            0 => self.junk(2),
            // Inside top object, attributes, attribute and values: four
            // levels, so these elements reach the limit and pass it.
            1 => format!("[1,{},3]", Self::nest(MAX_DEPTH - 4)),
            2 => format!("[1,{},3]", Self::nest(MAX_DEPTH - 3)),
            3 => format!("[1,{},3]", self.junk(2)),
            _ => {
                let len = match self.below(6) {
                    0 => self.below(5),
                    _ => 3,
                };
                let items: Vec<String> = (0..len)
                    .map(|_| {
                        if self.below(8) == 0 {
                            self.number().to_owned()
                        } else {
                            self.pick(&["10", "20", "30", "0", "4.25", "007", "-0"])
                                .to_owned()
                        }
                    })
                    .collect();
                format!("[{}]", items.join(&format!(",{}", self.ws())))
            }
        }
    }

    fn attribute(&mut self) -> String {
        if self.below(10) == 0 {
            return self.junk(2);
        }
        let name = self.pick(&["\"steam\"", "\"c\\\"2\"", "\"é\""]);
        let mut members = vec![
            format!("\"name\":{name}"),
            format!("\"values\":{}", self.values()),
        ];
        for _ in 0..self.below(3) {
            let member = match self.below(4) {
                0 => format!("\"name\":{}", self.junk(1)),
                1 => format!("\"values\":{}", self.values()),
                2 => "\"na\\u006de\":\"esc\"".to_owned(),
                _ => format!("{}:{}", self.string(), self.junk(1)),
            };
            members.push(member);
        }
        self.shuffle(&mut members);
        self.object(members)
    }

    fn attributes(&mut self) -> String {
        if self.below(10) == 0 {
            return self.junk(2);
        }
        let items: Vec<String> = (0..[0, 1, 1, 1, 2, 3][self.below(6)])
            .map(|_| format!("{}{}", self.ws(), self.attribute()))
            .collect();
        format!("[{}]", items.join(","))
    }

    fn shuffle(&mut self, items: &mut [String]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A whole body; a dirty one is sometimes truncated or has one ASCII
    /// byte overwritten.
    pub(crate) fn body(&mut self) -> String {
        let mut members = Vec::new();
        for _ in 0..self.below(3) {
            let junk = match self.below(8) {
                0 => Self::nest(MAX_DEPTH - 1),
                1 => Self::nest(MAX_DEPTH),
                _ => self.junk(3),
            };
            members.push(format!("{}:{junk}", self.string()));
        }
        members.push(format!(
            "\"source\":{}",
            self.pick(&["\"zip\"", "\"zip\"", "\"county\""])
        ));
        members.push(format!(
            "\"target\":{}",
            self.pick(&["\"county\"", "\"county\"", "\"zip\""])
        ));
        members.push(format!("\"attributes\":{}", self.attributes()));
        for _ in 0..self.below(3) {
            let member = match self.below(5) {
                0 => format!(
                    "{}:{}",
                    self.pick(&["\"source\"", "\"target\""]),
                    self.junk(1)
                ),
                1 => format!("\"attributes\":{}", self.attributes()),
                2 => format!("{}:\"zip\"", self.pick(&["\"sour\\u0063e\"", "\"Source\""])),
                _ => format!("{}:{}", self.string(), self.junk(2)),
            };
            members.push(member);
        }
        // Any order, so the wanted keys and their duplicates come first,
        // last and between.
        self.shuffle(&mut members);
        let mut body = match self.below(20) {
            0 => self.junk(2),
            _ => format!("{}{}{}", self.ws(), self.object(members), self.ws()),
        };
        match if self.dirty { self.below(4) } else { 2 } {
            0 => {
                let mut cut = self.below(body.len() + 1);
                while !body.is_char_boundary(cut) {
                    cut -= 1;
                }
                body.truncate(cut);
            }
            1 => {
                let at = self.below(body.len());
                if body.as_bytes()[at].is_ascii() {
                    let with = self.pick(&[
                        "\"", "\\", ",", ":", "{", "}", "[", "]", " ", "x", "0", "-", ".",
                    ]);
                    body.replace_range(at..at + 1, with);
                }
            }
            _ => {}
        }
        body
    }
}
