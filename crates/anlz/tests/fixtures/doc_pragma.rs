//! Doc-pragma fixture: documentation that quotes the pragma syntax,
//! `// anlz:allow(panic-in-hot-path): quoted in docs`, suppresses nothing.

const TABLE: [u64; 4] = [1, 2, 3, 4];

/// Indexes `TABLE` directly. As a plain comment, this line would
/// // anlz:allow(panic-in-hot-path): suppress the finding below
pub const FIRST: u64 = TABLE[0];
