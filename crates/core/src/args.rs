//! One table-driven parser for every command line: the `fbist`
//! subcommands, `fbist serve` request lines and the paper-artefact
//! binaries.
//!
//! A front end declares its flags once, as [`Opt`] rows of a [`Table`]:
//! each row names a flag, the metavar of its value (none for a switch), the
//! commands that accept it and a one-line help. [`parse`] reads a command's
//! tokens in one pass and rejects, naming the token, an unknown flag, a
//! flag the command does not accept, a repeated flag, a value-taking flag
//! with no value and a positional argument beyond the command's own. A
//! value-taking flag takes the next token whatever it looks like.
//! [`Table::synopsis`] and [`Table::flags`] render the same rows as usage
//! text, so the two cannot drift.

type Str = &'static str;

/// One flag of a [`Table`].
#[derive(Debug, Clone, Copy)]
pub struct Opt {
    /// The flag, with its leading `--`.
    pub name: Str,
    /// The metavar of its value in usage text, or `None` for a switch.
    pub value: Option<Str>,
    /// The commands that accept it.
    pub commands: &'static [Str],
    /// One line of help.
    pub help: Str,
}

impl Opt {
    /// A flag that takes no value.
    pub const fn switch(name: Str, commands: &'static [Str], help: Str) -> Opt {
        Opt {
            name,
            value: None,
            commands,
            help,
        }
    }

    /// A flag that takes a value, shown as `name meta` in usage text.
    pub const fn value(name: Str, meta: Str, commands: &'static [Str], help: Str) -> Opt {
        Opt {
            value: Some(meta),
            ..Opt::switch(name, commands, help)
        }
    }

    /// `name meta`, or `name` for a switch.
    fn spelled(&self) -> String {
        match self.value {
            Some(meta) => format!("{} {meta}", self.name),
            None => self.name.to_owned(),
        }
    }
}

/// A front end's command-line grammar.
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// Every command, with the metavars of the positional arguments it
    /// takes (at most that many).
    pub commands: &'static [(Str, &'static [Str])],
    /// Every flag.
    pub opts: &'static [Opt],
}

/// A command line [`parse`] accepted: its positional arguments, and each
/// flag given with its value.
#[derive(Debug, Clone)]
pub struct Args {
    positionals: Vec<String>,
    flags: Vec<(Str, Option<String>)>,
}

/// Parses the tokens after command `cmd` against `table`.
///
/// # Errors
///
/// Returns a message naming the unknown command, or the token that makes
/// the line malformed.
pub fn parse(cmd: &str, tokens: &[String], table: &Table) -> Result<Args, String> {
    let (full, positional) = table
        .commands
        .iter()
        .find(|(name, _)| *name == cmd)
        .ok_or_else(|| format!("unknown subcommand {cmd:?}"))?;
    let cmd = shown(cmd);
    let (mut positionals, mut flags) = (Vec::new(), Vec::new());
    let mut tokens = tokens.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            if positionals.len() == positional.len() {
                return Err(format!("unexpected argument {token:?} for `{cmd}`"));
            }
            positionals.push(token.clone());
            continue;
        }
        let opt = table
            .opts
            .iter()
            .find(|o| o.name == token && o.commands.contains(full))
            .ok_or_else(|| format!("unknown flag {token} for `{cmd}`"))?;
        if flags.iter().any(|(name, _)| name == token) {
            return Err(format!("duplicate flag {token} for `{cmd}`"));
        }
        let value = match opt.value {
            None => None,
            Some(_) => Some(tokens.next().cloned().ok_or_else(|| {
                format!("flag {token} for `{cmd}` needs a value ({})", opt.spelled())
            })?),
        };
        flags.push((opt.name, value));
    }
    Ok(Args { positionals, flags })
}

impl Args {
    /// The `i`-th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether `opt` was given.
    pub fn switch(&self, opt: &Opt) -> bool {
        self.flags.iter().any(|(name, _)| *name == opt.name)
    }

    /// The value given to `opt`, if any.
    pub fn value(&self, opt: &Opt) -> Option<&str> {
        let given = self.flags.iter().find(|(name, _)| *name == opt.name);
        given.and_then(|(_, v)| v.as_deref())
    }

    /// The value of `opt` read by `parse`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// Passes on `parse`'s error.
    pub fn get<T>(
        &self,
        opt: &Opt,
        default: T,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.value(opt).map_or(Ok(default), parse)
    }

    /// The value of `opt` as a number, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// Names the flag and the value when it does not parse.
    pub fn num<T: std::str::FromStr>(&self, opt: &Opt, default: T) -> Result<T, String> {
        let invalid = |v: &str| format!("invalid value for {}: {v:?}", opt.name);
        self.get(opt, default, |v| v.parse().map_err(|_| invalid(v)))
    }
}

impl Table {
    /// One line per command, `{prefix}{command} <positionals> [flags]`,
    /// wrapped at 78 columns. With more than one command, the flags every command takes are left
    /// off the command lines and listed once, after them.
    pub fn synopsis(&self, prefix: &str) -> String {
        let takes = |o: &Opt, cmd: &str| o.commands.contains(&cmd);
        let common = |o: &&Opt| {
            self.commands.len() > 1 && self.commands.iter().all(|(cmd, _)| takes(o, cmd))
        };
        let bracketed = |o: &Opt| format!("[{}]", o.spelled());
        let mut text = String::new();
        for (cmd, positional) in self.commands {
            let flags = self.opts.iter().filter(|o| takes(o, cmd) && !common(o));
            let words = positional.iter().map(|p| p.to_string());
            text += &wrap(
                format!("  {prefix}{}", shown(cmd)),
                words.chain(flags.map(bracketed)),
            );
        }
        if self.opts.iter().any(|o| common(&o)) {
            let shared = self.opts.iter().filter(common).map(bracketed);
            text += &wrap("each of these also takes".into(), shared);
        }
        text
    }

    /// One help line per flag, under a heading that states the parsing
    /// rules.
    pub fn flags(&self) -> String {
        let width = self.opts.iter().map(|o| o.spelled().chars().count());
        let width = width.max().unwrap_or(0);
        let mut text = String::from(
            "flags go anywhere after the command, each at most once; a flag the command\n\
             does not take, a flag without its value or an extra argument is an error:\n",
        );
        for o in self.opts {
            text += &format!("  {:<width$}  {}\n", o.spelled(), o.help);
        }
        text
    }
}

/// How usage text and error messages show a command: by the last word of
/// its name, so a sub-grammar such as `serve reseed` reads as `reseed`.
fn shown(cmd: &str) -> &str {
    cmd.rsplit(' ').next().unwrap_or(cmd)
}

/// `head` followed by `words`, wrapped at 78 columns under `head`.
fn wrap(head: String, words: impl Iterator<Item = String>) -> String {
    let indent = " ".repeat(head.chars().count());
    let (mut text, mut line) = (String::new(), head);
    for word in words {
        if line.chars().count() + 1 + word.chars().count() > 78 && !line.trim().is_empty() {
            text += &(line + "\n");
            line = indent.clone();
        }
        line += &format!(" {word}");
    }
    text + &line + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: Opt = Opt::value("--n", "N", &["a", "b"], "a number");
    const S: Opt = Opt::switch("--s", &["a"], "a switch");
    const T: Table = Table {
        commands: &[("a", &["<x>"]), ("b", &[])],
        opts: &[N, S],
    };

    fn parse_line(line: &str) -> Result<Args, String> {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&tokens[0], &tokens[1..], &T)
    }

    #[test]
    fn typed_lookups_read_values_switches_and_defaults() {
        let args = parse_line("a --n 5 x --s").unwrap();
        assert_eq!(args.positional(0), Some("x"));
        assert_eq!((args.num(&N, 0), args.switch(&S)), (Ok(5), true));
        let args = parse_line("b").unwrap();
        assert_eq!((args.num(&N, 7), args.switch(&S)), (Ok(7), false));
        let err = parse_line("b --n x").unwrap().num(&N, 7).unwrap_err();
        assert_eq!(err, "invalid value for --n: \"x\"");
        // a value-taking flag takes the next token even if it looks like a flag
        assert_eq!(parse_line("a --n --s").unwrap().value(&N), Some("--s"));
    }

    #[test]
    fn one_pass_rejects_every_malformed_line_naming_the_token() {
        for (line, err) in [
            ("c", "unknown subcommand \"c\""),
            ("a --m 1", "unknown flag --m for `a`"),
            ("b --s", "unknown flag --s for `b`"),
            ("a --n 1 --n 2", "duplicate flag --n for `a`"),
            ("a --s --s", "duplicate flag --s for `a`"),
            ("a --n", "flag --n for `a` needs a value (--n N)"),
            ("a x y", "unexpected argument \"y\" for `a`"),
            ("b x", "unexpected argument \"x\" for `b`"),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), err, "{line}");
        }
    }

    #[test]
    fn usage_is_rendered_from_the_rows() {
        let synopsis = "  p a <x> [--s]\n  p b\neach of these also takes [--n N]\n";
        assert_eq!(T.synopsis("p "), synopsis);
        assert!(T
            .flags()
            .ends_with(":\n  --n N  a number\n  --s    a switch\n"));
    }
}
