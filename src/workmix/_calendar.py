"""The calendar every model shares: its base year and its default horizon."""

START_YEAR = 2025
HORIZON_YEARS = 20
