//! Simulated time and the study calendar.
//!
//! The paper analyzes 4.5 years, 2019-01-01 through 2023-06-30, and
//! aggregates everything to *weeks* (new attacks per day, summed to weekly
//! totals, §5). This module provides a minimal proleptic-Gregorian
//! calendar (no leap seconds, UTC only) sufficient for day/week/quarter
//! bucketing, plus the study constants.

use serde::{Deserialize, Serialize};

/// Seconds since the study epoch, 2019-01-01 00:00:00 UTC.
///
/// A thin newtype so that raw second counts, day indices and week indices
/// cannot be mixed up silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimTime(pub i64);

pub const SECS_PER_DAY: i64 = 86_400;
pub const SECS_PER_WEEK: i64 = 7 * SECS_PER_DAY;

/// Days from civil epoch 1970-01-01 to the study epoch 2019-01-01.
/// 2019-01-01 is 17_897 days after the Unix epoch.
pub const STUDY_EPOCH_UNIX_DAYS: i64 = 17_897;

/// The study covers 2019-01-01 (inclusive) .. 2023-07-01 (exclusive):
/// 4.5 years. 2020 is a leap year, so that is 365*4 + 366 - 365 + 181 =
/// 1642 days = 234 full weeks + 4 days.
pub const STUDY_DAYS: i64 = 1642;
pub const STUDY_WEEKS: usize = 235; // 234 full + 1 partial trailing week

/// Study start (t = 0).
pub const STUDY_START: SimTime = SimTime(0);
/// One second past the last covered instant.
pub const STUDY_END: SimTime = SimTime(STUDY_DAYS * SECS_PER_DAY);

impl SimTime {
    /// Construct from whole days since the study epoch.
    pub const fn from_days(days: i64) -> Self {
        SimTime(days * SECS_PER_DAY)
    }

    /// Construct from whole study weeks.
    pub const fn from_weeks(weeks: i64) -> Self {
        SimTime(weeks * SECS_PER_WEEK)
    }

    /// Day index since the study epoch (floor).
    pub const fn day_index(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Week index since the study epoch (floor). Week 0 starts on
    /// 2019-01-01 (a Tuesday); the paper's weekly buckets are likewise
    /// anchored to the start of its observation window.
    pub const fn week_index(self) -> i64 {
        self.0.div_euclid(SECS_PER_WEEK)
    }

    /// Is this instant inside the study window?
    pub const fn in_study(self) -> bool {
        self.0 >= 0 && self.0 < STUDY_DAYS * SECS_PER_DAY
    }

    /// Civil calendar date of this instant.
    pub fn date(self) -> Date {
        Date::from_unix_days(STUDY_EPOCH_UNIX_DAYS + self.day_index())
    }

    /// Offset by a number of seconds.
    pub const fn plus_secs(self, secs: i64) -> Self {
        SimTime(self.0 + secs)
    }

    /// Offset by a number of days.
    pub const fn plus_days(self, days: i64) -> Self {
        SimTime(self.0 + days * SECS_PER_DAY)
    }

    /// Fractional years since the study epoch (365.25-day years); used by
    /// the trend timeline.
    pub fn years_f64(self) -> f64 {
        self.0 as f64 / (365.25 * SECS_PER_DAY as f64)
    }

    /// Quarter index since 2019Q1 (0 = 2019Q1, 4 = 2020Q1, ...).
    pub fn quarter_index(self) -> i64 {
        let d = self.date();
        (d.year as i64 - 2019) * 4 + ((d.month as i64 - 1) / 3)
    }
}

/// A civil (proleptic Gregorian) date.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

impl Date {
    pub const fn new(year: i32, month: u8, day: u8) -> Self {
        Date { year, month, day }
    }

    /// Days since the Unix epoch → civil date.
    /// Howard Hinnant's `civil_from_days` algorithm.
    pub fn from_unix_days(z: i64) -> Date {
        let z = z + 719_468;
        let era = z.div_euclid(146_097);
        let doe = z.rem_euclid(146_097); // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
        Date {
            year: (if m <= 2 { y + 1 } else { y }) as i32,
            month: m,
            day: d,
        }
    }

    /// Civil date → days since the Unix epoch.
    /// Howard Hinnant's `days_from_civil` algorithm.
    pub fn to_unix_days(self) -> i64 {
        let y = self.year as i64 - if self.month <= 2 { 1 } else { 0 };
        let m = self.month as i64;
        let d = self.day as i64;
        let era = if y >= 0 { y } else { y - 399 }.div_euclid(400);
        let yoe = y - era * 400; // [0, 399]
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146_097 + doe - 719_468
    }

    /// The SimTime of midnight (start) of this date.
    pub fn to_sim_time(self) -> SimTime {
        SimTime::from_days(self.to_unix_days() - STUDY_EPOCH_UNIX_DAYS)
    }

    /// ISO-ish label, e.g. "2021-03-07".
    pub fn to_string_iso(self) -> String {
        format!("{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }

    /// Quarter (1..=4) of this date.
    pub const fn quarter(self) -> u8 {
        (self.month - 1) / 3 + 1
    }

    /// Label like "2021Q2".
    pub fn quarter_label(self) -> String {
        format!("{}Q{}", self.year, self.quarter())
    }
}

impl std::fmt::Display for Date {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_string_iso())
    }
}

/// Known law-enforcement takedown dates marked in the paper's Figure 3
/// (per seizure warrants: 2022-12-13 and 2023-05-04).
pub fn takedown_dates() -> [Date; 2] {
    [Date::new(2022, 12, 13), Date::new(2023, 5, 4)]
}

/// The first `n` week indices of the study, used as the normalization
/// baseline window (the paper normalizes to the median of the first 15
/// weeks, §5).
pub const BASELINE_WEEKS: usize = 15;

/// Label (start date) of a study week.
pub fn week_start_date(week: i64) -> Date {
    SimTime::from_weeks(week).date()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2019_01_01() {
        assert_eq!(SimTime(0).date(), Date::new(2019, 1, 1));
    }

    #[test]
    fn study_days_constant_matches_calendar() {
        let end = Date::new(2023, 7, 1);
        assert_eq!(end.to_unix_days() - STUDY_EPOCH_UNIX_DAYS, STUDY_DAYS);
    }

    #[test]
    fn study_weeks_covers_days() {
        assert_eq!(STUDY_WEEKS, (STUDY_DAYS as usize).div_ceil(7));
    }

    #[test]
    fn date_roundtrip_over_study() {
        for d in 0..STUDY_DAYS {
            let date = SimTime::from_days(d).date();
            assert_eq!(date.to_unix_days() - STUDY_EPOCH_UNIX_DAYS, d);
        }
    }

    #[test]
    fn leap_day_2020() {
        let feb29 = Date::new(2020, 2, 29);
        let t = feb29.to_sim_time();
        assert_eq!(t.date(), feb29);
        assert_eq!(t.plus_days(1).date(), Date::new(2020, 3, 1));
    }

    #[test]
    fn non_leap_2019() {
        let feb28 = Date::new(2019, 2, 28).to_sim_time();
        assert_eq!(feb28.plus_days(1).date(), Date::new(2019, 3, 1));
    }

    #[test]
    fn week_index_boundaries() {
        assert_eq!(SimTime(0).week_index(), 0);
        assert_eq!(SimTime(SECS_PER_WEEK - 1).week_index(), 0);
        assert_eq!(SimTime(SECS_PER_WEEK).week_index(), 1);
        assert_eq!(SimTime(-1).week_index(), -1);
    }

    #[test]
    fn day_index_floors_within_the_day() {
        let t = SimTime(3 * SECS_PER_DAY + 5);
        assert_eq!(t.day_index(), 3);
    }

    #[test]
    fn in_study_bounds() {
        assert!(STUDY_START.in_study());
        assert!(SimTime(STUDY_END.0 - 1).in_study());
        assert!(!STUDY_END.in_study());
        assert!(!SimTime(-1).in_study());
    }

    #[test]
    fn quarter_indexing() {
        assert_eq!(Date::new(2019, 1, 1).to_sim_time().quarter_index(), 0);
        assert_eq!(Date::new(2019, 4, 1).to_sim_time().quarter_index(), 1);
        assert_eq!(Date::new(2020, 1, 1).to_sim_time().quarter_index(), 4);
        assert_eq!(Date::new(2023, 6, 30).to_sim_time().quarter_index(), 17);
    }

    #[test]
    fn quarter_labels() {
        assert_eq!(Date::new(2021, 5, 2).quarter_label(), "2021Q2");
        assert_eq!(Date::new(2023, 12, 31).quarter_label(), "2023Q4");
    }

    #[test]
    fn takedowns_inside_study() {
        for d in takedown_dates() {
            assert!(d.to_sim_time().in_study());
        }
    }

    #[test]
    fn years_f64_monotone() {
        assert!(SimTime::from_days(365).years_f64() > 0.99);
        assert!(SimTime::from_days(365).years_f64() < 1.01);
    }

    #[test]
    fn display_format() {
        assert_eq!(Date::new(2020, 3, 7).to_string(), "2020-03-07");
    }

    #[test]
    fn week_start_dates_monotone() {
        let mut prev = week_start_date(0).to_unix_days();
        for w in 1..STUDY_WEEKS as i64 {
            let cur = week_start_date(w).to_unix_days();
            assert_eq!(cur - prev, 7);
            prev = cur;
        }
    }
}
